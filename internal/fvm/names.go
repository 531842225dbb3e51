package fvm

// Exported registry name constants. Code outside this package must use
// these instead of bare string literals when naming a flux kernel, time
// integrator, limiter or implicit sweep — the catlint
// registry analyzer enforces it, so a renamed registry entry fails the
// build-time lint instead of a runtime lookup.
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
