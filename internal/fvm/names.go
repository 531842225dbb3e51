package fvm

import (
	"cmp"
	"fmt"
)

// Exported name constants for the flux kernels, time integrators, limiters
// and implicit sweeps. CheckNames is the one check of a name: a misspelled
// one fails it with the valid list, and TestNameTables holds the tables,
// their enumerators and CheckNames to the same sets.
const (
	// Flux kernels (Options.Flux, case-file "flux").
	FluxHLLE       = "hlle"
	FluxHLLEEF     = "hlle-ef"
	FluxHLLC       = "hllc"
	FluxAUSMPlus   = "ausm+"
	FluxAUSMPlusUp = "ausm+up"

	// Time integrators (Options.TimeStepping, case-file "time_stepping").
	TimeSteppingExplicit = "explicit"
	TimeSteppingImplicit = "implicit"

	// Slope limiters (Options.Limiter, case-file "limiter").
	LimiterMinmod    = "minmod"
	LimiterVanAlbada = "vanalbada"

	// Implicit sweep schedules (Options.ImplicitSweep,
	// case-file "implicit_sweep").
	ImplicitSweepJLine = "jline"
	ImplicitSweepADI   = "adi"
)

// DefaultTimeStepping is the integrator used when Options.TimeStepping is
// empty.
const DefaultTimeStepping = TimeSteppingExplicit

// Integrators returns the time-integrator names in ascending order — the
// valid values of Options.TimeStepping.
func Integrators() []string { return []string{TimeSteppingExplicit, TimeSteppingImplicit} }

// CheckNames checks the four finite-volume names of a solve against their
// tables: Options.Flux, TimeStepping, ImplicitSweep and Limiter, where an
// empty name selects the default. New and the case-level validation both
// call it, so an unknown name fails before any solve or ledger key, with
// the valid names in the error. Accepting a name allocates nothing.
func CheckNames(flux, timeStepping, implicitSweep, limiter string) error {
	if _, ok := fluxTable[cmp.Or(flux, DefaultFlux)]; !ok {
		return fmt.Errorf("fvm: no flux kernel %q (have %v)", flux, FluxKernels())
	}
	switch timeStepping {
	case "", TimeSteppingExplicit, TimeSteppingImplicit:
	default:
		return fmt.Errorf("fvm: no time integrator %q (have %v)", timeStepping, Integrators())
	}
	switch implicitSweep {
	case "", ImplicitSweepJLine, ImplicitSweepADI:
	default:
		return fmt.Errorf("fvm: no implicit sweep %q (have %v)", implicitSweep, ImplicitSweeps())
	}
	if _, ok := limiterTable[cmp.Or(limiter, DefaultLimiter)]; !ok {
		return fmt.Errorf("fvm: no slope limiter %q (have %v)", limiter, Limiters())
	}
	return nil
}
