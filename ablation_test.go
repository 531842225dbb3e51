package cataero

import (
	"context"
	"math"

	"cataero/internal/blayer"
	"cataero/internal/chem"
	"cataero/internal/fvm"
	"cataero/internal/gas"
	"cataero/internal/geometry"
	"cataero/internal/grid"
	"cataero/internal/radiation"
	"cataero/internal/shocktube"
	"cataero/internal/thermo"
	"cataero/internal/transport"
	"cataero/internal/vsl"
)

// Helpers backing the ablation benchmarks in bench_test.go: each isolates
// one design choice.

func newEquilibriumForBench() *gas.Equilibrium { return gas.NewEquilibriumAir() }

func newTableForBench(base *gas.Equilibrium) (*gas.Table, error) {
	return gas.NewTable(base, 1e-4, 1.0, 2e5, 3e7, 30, 30)
}

// relaxationLengthComparison integrates the Fig. 7 shock-tube case with the
// two-temperature rates and with a one-temperature variant (all rates at T),
// returning the distance for N2 to reach half its total dissociation.
func relaxationLengthComparison() (oneT, twoT float64, err error) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	run := func(twoTemp bool) (float64, error) {
		mech, err := chem.AirMechanism(m)
		if err != nil {
			return 0, err
		}
		if !twoTemp {
			for _, r := range mech.Reactions {
				r.TMode = chem.TTrans
			}
		}
		prof, err := shocktube.Solve(shocktube.Problem{
			Mix: m, Mech: mech,
			P1: 13.0, T1: 300, U1: 10000,
			Y1:   thermo.AirFreestreamMassFractions(m.Species),
			XEnd: 0.05, NOut: 70,
		})
		if err != nil {
			return 0, err
		}
		last := len(prof.X) - 1
		target := 0.5 * (prof.Y[0][thermo.AirN2] + prof.Y[last][thermo.AirN2])
		for i := range prof.X {
			if prof.Y[i][thermo.AirN2] <= target {
				return prof.X[i], nil
			}
		}
		return prof.X[last], nil
	}
	if oneT, err = run(false); err != nil {
		return 0, 0, err
	}
	if twoT, err = run(true); err != nil {
		return 0, 0, err
	}
	return oneT, twoT, nil
}

// catalyticSweep returns the stagnation heating for a sweep of wall
// recombination coefficients at a Shuttle-like condition.
func catalyticSweep(gammaWs []float64) ([]float64, error) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	eq := chem.NewEquilibriumSolver(m)
	tr := transport.NewMixture(m)
	y0 := thermo.AirFreestreamMassFractions(m.Species)
	fs := blayer.FreeStream{P: 4.5, T: 216, Rho: 7.3e-5, V: 6740}
	in, err := blayer.StagnationFromFreestream(eq, y0, fs, 1200, 0.6)
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, gw := range gammaWs {
		sol, err := blayer.SolveStagnation(m, tr, in.Edge, 1200, fs.P, 0.6, gw)
		if err != nil {
			return nil, err
		}
		out = append(out, sol.QWall)
	}
	return out, nil
}

// shockWidthComparison measures the captured-shock thickness (in cells
// crossing 10%-90% of the density rise along the stagnation line) with and
// without MUSCL reconstruction.
func shockWidthComparison() (firstOrder, muscl float64, err error) {
	run := func(useMUSCL bool) (float64, error) {
		body := geometry.NewSphere(1.0)
		g, err := grid.NewBlunt(body, body.MaxS(), 10, 40, func(s float64) float64 {
			return 0.35 + 0.3*s
		}, 2.0)
		if err != nil {
			return 0, err
		}
		g.Axisymmetric = true
		aInf := math.Sqrt(thermo.GammaAir * thermo.RAir * 250)
		s, _, err := fvm.SolveMultilevel(context.Background(), g, fvm.Options{
			Gas:          gas.NewIdealAir(),
			FreestreamV:  [2]float64{6 * aInf, 0},
			FreestreamPT: [2]float64{100, 250},
			CFL:          0.5,
			MUSCL:        useMUSCL,
		}, 2500, 1e-3, fvm.SequenceOptions{})
		if err != nil {
			return 0, err
		}
		defer s.Close()
		// Density rise along the stagnation line.
		rhoInf := s.Freestream().Rho
		rhoMax := rhoInf
		for j := 0; j < 40; j++ {
			if r := s.Primitive(0, j).Rho; r > rhoMax {
				rhoMax = r
			}
		}
		lo := rhoInf + 0.1*(rhoMax-rhoInf)
		hi := rhoInf + 0.9*(rhoMax-rhoInf)
		cells := 0
		for j := 39; j >= 0; j-- {
			r := s.Primitive(0, j).Rho
			if r > lo && r < hi {
				cells++
			}
		}
		if cells == 0 {
			cells = 1
		}
		return float64(cells), nil
	}
	if firstOrder, err = run(false); err != nil {
		return 0, 0, err
	}
	if muscl, err = run(true); err != nil {
		return 0, 0, err
	}
	return firstOrder, muscl, nil
}

// radiationLimitComparison compares the optically thin bound with the full
// tangent-slab wall flux for the Titan stagnation layer.
func radiationLimitComparison() (thin, slab float64, err error) {
	in := titanVSLInputs()
	in.PInf, in.TInf, in.VInf = 8.0, 165, 9500
	r, err := vsl.Solve(context.Background(), in)
	if err != nil {
		return 0, 0, err
	}
	m := in.Mix
	var layers []radiation.Layer
	for i := 1; i < len(r.Y); i++ {
		Tm := 0.5 * (r.T[i] + r.T[i-1])
		ymid, rhomid, err := in.Eq.CompositionPT(r.Edge.P, math.Max(Tm, 300), in.Y0)
		if err != nil {
			return 0, 0, err
		}
		layers = append(layers, radiation.Layer{
			Thickness: r.Y[i] - r.Y[i-1],
			T:         Tm, Tex: Tm,
			N: m.NumberDensities(rhomid, ymid),
		})
	}
	thin = in.Rad.OpticallyThinFlux(layers)
	slab = in.Rad.SolveSlab(layers).QWall
	return thin, slab, nil
}
