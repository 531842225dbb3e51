package fvm

import (
	"fmt"
	"sort"
)

// DefaultFlux is the kernel used when Options.Flux is empty.
const DefaultFlux = FluxHLLE

// fluxTable maps the Options.Flux names to their kernels.
var fluxTable = map[string]BatchFluxKernel{
	FluxHLLE:       hlleKernel{},
	FluxHLLEEF:     hlleEFKernel{},
	FluxHLLC:       hllcKernel{},
	FluxAUSMPlus:   ausmKernel{},
	FluxAUSMPlusUp: ausmUpKernel{},
}

// FluxKernelFor resolves a kernel by name; the empty name resolves to
// DefaultFlux.
func FluxKernelFor(name string) (BatchFluxKernel, error) {
	if name == "" {
		name = DefaultFlux
	}
	k, ok := fluxTable[name]
	if !ok {
		return nil, fmt.Errorf("fvm: no flux kernel %q (have %v)", name, FluxKernels())
	}
	return k, nil
}

// FluxKernels returns the kernel names in ascending order.
func FluxKernels() []string {
	out := make([]string, 0, len(fluxTable))
	for n := range fluxTable {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// hlleKernel is the HLLE flux: pure upwind outside the estimated wave fan
// and the integral average of the Riemann fan inside it.
type hlleKernel struct{}

func (hlleKernel) Name() string { return FluxHLLE }

// hlleEFKernel is the HLLE flux with an entropy fix: the wave-speed
// estimates are floored away from zero by a fraction of the mean sound
// speed, so the scheme never collapses onto the pure-upwind branch at a
// sonic point. Plain HLLE can lock in an entropy-violating expansion shock
// exactly there (the left and right fluxes agree across the jump and the
// dissipation vanishes); the floor keeps the fan averaged and smears the
// jump into the physical rarefaction at the cost of O(delta) extra
// dissipation everywhere.
type hlleEFKernel struct{}

func (hlleEFKernel) Name() string { return FluxHLLEEF }

// entropyFixFrac scales the hlle-ef dissipation floor: the left and right
// wave-speed estimates are pushed at least entropyFixFrac times the mean
// face sound speed away from zero. 0.1 is the customary Harten-style
// choice — wide enough to break an expansion shock, narrow enough to leave
// captured shocks crisp.
const entropyFixFrac = 0.1

// hllcKernel is the HLLC flux (Toro's restoration of the contact wave
// missing from HLLE), written against wave-speed estimates that only use
// the local sound speeds so it stays valid for a general equation of state.
type hllcKernel struct{}

func (hllcKernel) Name() string { return FluxHLLC }

// ausmKernel is Liou's AUSM+ flux: Mach-number and pressure splittings
// about a common interface sound speed, with the convected vector upwinded
// by the interface Mach number. The splittings satisfy M±(M) = -M∓(-M) and
// P±(M) = P∓(-M), which gives the required symmetry under (L,R,n) ->
// (R,L,-n).
type ausmKernel struct{}

func (ausmKernel) Name() string { return FluxAUSMPlus }

// ausmUpKernel is Liou's AUSM+up flux: the AUSM+ Mach and pressure
// splittings augmented with a pressure-diffusion term in the interface Mach
// number and a velocity-diffusion term in the interface pressure. Plain
// AUSM+ loses pressure-velocity coupling as M -> 0 (the pressure flux
// decouples and checkerboards in near-incompressible regions — boundary
// layers, the stagnation region ahead of a blunt body); the +up terms
// restore it with O(M) diffusion scaled by fa so they vanish at transonic
// and supersonic Mach numbers and leave captured shocks as crisp as AUSM+.
// Both terms are antisymmetric under (L,R,n) -> (R,L,-n) and vanish at
// L == R, so the kernel keeps the BatchFluxKernel symmetry and consistency
// contracts.
type ausmUpKernel struct{}

func (ausmUpKernel) Name() string { return FluxAUSMPlusUp }

// AUSM+up low-Mach coefficients (Liou 2006): Kp and Ku weight the pressure-
// and velocity-diffusion terms, sigma bounds the pressure term's Mach
// window, and ausmUpMco is the cutoff Mach number that floors the scaling
// function fa so both terms stay active as the local Mach number vanishes.
const (
	ausmUpKp    = 0.25
	ausmUpKu    = 0.75
	ausmUpSigma = 1.0
	ausmUpMco   = 0.1
)
