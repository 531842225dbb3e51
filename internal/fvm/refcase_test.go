package fvm

import (
	"math"

	"cataero/internal/gas"
	"cataero/internal/geometry"
	"cataero/internal/grid"
	"cataero/internal/thermo"
	"cataero/internal/transport"
)

// ReferenceViscousCase builds the package's reference viscous
// configuration at the given grid size: the Fig. 9-class Mach-6 ideal-air
// hemisphere (Rn = 12.7 mm) with Roberts wall clustering, thin-layer viscous
// terms and an isothermal no-slip wall. The Step benchmarks, the zero-alloc
// tests and the integrator tests all run it, so they measure the same
// solve; ts selects the time integrator ("" = explicit).
func ReferenceViscousCase(ni, nj int, ts string) (*grid.Grid2D, Options, error) {
	body := geometry.NewSphere(0.0127)
	g, err := grid.NewBlunt(body, body.MaxS(), ni, nj, func(s float64) float64 {
		return 0.35*0.0127 + 0.3*s
	}, 1.08)
	if err != nil {
		return nil, Options{}, err
	}
	g.Axisymmetric = true
	o := Options{
		Gas:          gas.NewIdealAir(),
		Viscous:      true,
		TWall:        1500,
		Mu:           transport.Sutherland,
		K:            transport.SutherlandConductivity,
		FreestreamV:  [2]float64{6 * math.Sqrt(thermo.GammaAir*thermo.RAir*217), 0},
		FreestreamPT: [2]float64{550, 217},
		CFL:          0.4,
		MUSCL:        true,
		TimeStepping: ts,
	}
	return g, o, nil
}

// ReferenceSlenderCase is the high-aspect-ratio counterpart of
// ReferenceViscousCase: the same Mach-6 hemisphere, but resolved with many
// streamwise stations over few, mildly clustered wall-normal cells, so the
// cell aspect ratio flips — the streamwise spacing is the fine direction
// and streamwise coupling, not wall-normal stiffness, is what limits the
// relaxation. Wall-normal-only ("jline") line relaxation stalls its CFL
// ramp here; the alternating-direction sweep carries the streamwise
// couplings implicitly and keeps climbing. sweep selects the implicit
// schedule ("" = jline default).
func ReferenceSlenderCase(ni, nj int, sweep string) (*grid.Grid2D, Options, error) {
	body := geometry.NewSphere(0.0127)
	g, err := grid.NewBlunt(body, body.MaxS(), ni, nj, func(s float64) float64 {
		return 0.35*0.0127 + 0.3*s
	}, 1.02)
	if err != nil {
		return nil, Options{}, err
	}
	g.Axisymmetric = true
	o := Options{
		Gas:           gas.NewIdealAir(),
		Viscous:       true,
		TWall:         1500,
		Mu:            transport.Sutherland,
		K:             transport.SutherlandConductivity,
		FreestreamV:   [2]float64{6 * math.Sqrt(thermo.GammaAir*thermo.RAir*217), 0},
		FreestreamPT:  [2]float64{550, 217},
		CFL:           0.4,
		MUSCL:         true,
		TimeStepping:  TimeSteppingImplicit,
		ImplicitSweep: sweep,
	}
	return g, o, nil
}
