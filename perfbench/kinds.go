package main

import (
	"context"
	"fmt"
	"math"

	"cataero"
	"cataero/internal/atmosphere"
	"cataero/internal/chem"
	"cataero/internal/shocktube"
	"cataero/internal/thermo"
)

// opMode is how a case kind reaches the program.
type opMode int

const (
	modeSolve opMode = iota // Session.Submit of a Problem
	modeShock               // Session.SubmitShock (Euler bow shock)
	modeTube                // internal/shocktube.Solve (no Session class)
)

// caseKind is one case class of a sweep: the problem it solves for a given
// wall temperature, and the two reference outputs its check compares
// against (recorded at the commit that defined the benchmark).
type caseKind struct {
	name  string
	mode  opMode
	twall float64 // nominal wall temperature, K (0: the kind has no wall)
	// problem builds the kind's case at wall temperature tw.
	problem func(tw float64) cataero.Problem
	// out names the two checked outputs and gives their references.
	out [2]output
	// phases are the schedule phases a finite-volume kind reports, in
	// order; each gets an exact step-count metric.
	phases []string
}

// output is one checked scalar of an op with its reference value.
type output struct {
	label string
	ref   float64
}

// refBand is the relative band around a reference inside which an output
// passes. Wall-temperature jitter moves the outputs by well under 1%; a
// wrong answer moves them by far more.
const refBand = 0.03

// smokeProblem is Mach-6 ideal air over a 0.3 m hemisphere, the freestream
// of cmd/catsim/testdata/smoke.json.
func smokeProblem(ni, nj, maxSteps int, tw float64) cataero.Problem {
	return cataero.Problem{
		Class: cataero.NS, Chemistry: cataero.IdealGas,
		PInf: 5474.9, TInf: 216.65, VInf: 1770.4,
		NoseRadius: 0.3, TWall: tw,
		NI: ni, NJ: nj, MaxSteps: maxSteps,
	}
}

// fig9Problem is an implicit equilibrium-air NS case at the paper's Fig. 9
// freestream altitude (20 km) and the given Mach number.
func fig9Problem(mach float64, ni, nj int, tw float64) cataero.Problem {
	st := atmosphere.NewEarth().AtAltitude(20e3)
	aInf := math.Sqrt(thermo.GammaAir * thermo.RAir * st.Temperature)
	return cataero.Problem{
		Class: cataero.NS, Chemistry: cataero.EquilibriumAir,
		PInf: st.Pressure, TInf: st.Temperature, VInf: mach * aInf,
		NoseRadius: 0.3, TWall: tw,
		NI: ni, NJ: nj, MaxSteps: 3000,
		TimeStepping: "implicit",
	}
}

// shuttleProblem is the quickstart Shuttle entry point in equilibrium air,
// solved by the given marching class.
func shuttleProblem(class cataero.SolverClass, tw float64) cataero.Problem {
	p := cataero.Problem{
		Class: class, Chemistry: cataero.EquilibriumAir,
		PInf: 4.8, TInf: 217, VInf: 6740,
		NoseRadius: 0.6, TWall: tw, NStations: 16,
	}
	switch class {
	case cataero.VSL:
		p.Radiation = true
	case cataero.EBL:
		p.GammaW = 1
	}
	return p
}

// Output labels.
const (
	qStag    = "q_stag_W/m2"
	standoff = "standoff_m"
	qEnd     = "q_end_W/m2" // heat flux at the last surface station
)

// finiteVolume reports whether the kind marches to a residual drop under a
// step cap (NS and Euler), so its check includes convergence.
func (k *caseKind) finiteVolume() bool { return len(k.phases) > 0 }

// idealKinds is the ns-ideal rotation.
var idealKinds = []caseKind{
	{name: "ns8x14-explicit", phases: []string{"solve"}, twall: 600, out: [2]output{{qStag, 77198.6}, {standoff, 0.053386}},
		problem: func(tw float64) cataero.Problem { return smokeProblem(8, 14, 2500, tw) }},
	{name: "ns20x32-jline", phases: []string{"solve"}, twall: 600, out: [2]output{{qStag, 178633}, {standoff, 0.0482737}},
		problem: func(tw float64) cataero.Problem {
			p := smokeProblem(20, 32, 3000, tw)
			p.TimeStepping, p.ImplicitSweep = "implicit", "jline"
			return p
		}},
	{name: "ns64x12-adi", phases: []string{"solve"}, twall: 600, out: [2]output{{qStag, 62631.1}, {standoff, 0.0440326}},
		problem: func(tw float64) cataero.Problem {
			p := smokeProblem(64, 12, 3000, tw)
			p.TimeStepping, p.ImplicitSweep = "implicit", "adi"
			return p
		}},
	{name: "ns40x64-L2", phases: []string{"coarse", "fine"}, twall: 600, out: [2]output{{qStag, 356919}, {standoff, 0.0453757}},
		problem: func(tw float64) cataero.Problem {
			p := smokeProblem(40, 64, 6000, tw)
			p.TimeStepping, p.Levels, p.GridSequencing = "implicit", 2, cataero.ToggleOn
			return p
		}},
	{name: "ns40x64-L3", phases: []string{"level2", "level1", "level0"}, twall: 600, out: [2]output{{qStag, 356571}, {standoff, 0.0453757}},
		problem: func(tw float64) cataero.Problem {
			p := smokeProblem(40, 64, 6000, tw)
			p.TimeStepping, p.Levels, p.GridSequencing = "implicit", 3, cataero.ToggleOn
			p.Cycle = "cascade"
			return p
		}},
	{name: "euler16x24", phases: []string{"solve"}, mode: modeShock, out: [2]output{{standoff, 0.133858}, {"shock_y_end_m", 0.745763}},
		problem: func(float64) cataero.Problem {
			st := atmosphere.NewEarth().AtAltitude(60e3)
			return cataero.Problem{
				Chemistry: cataero.IdealGas,
				PInf:      st.Pressure, TInf: st.Temperature, VInf: 6700,
				NoseRadius: 0.3, NI: 16, NJ: 24, MaxSteps: 2600,
			}
		}},
}

// realGasKinds is the real-gas rotation.
var realGasKinds = []caseKind{
	{name: "eq-M20-14x26", phases: []string{"solve"}, twall: 1500, out: [2]output{{qStag, 1.44326e6}, {standoff, 0.0269463}},
		problem: func(tw float64) cataero.Problem { return fig9Problem(20, 14, 26, tw) }},
	{name: "eq-M15-20x32", phases: []string{"solve"}, twall: 1500, out: [2]output{{qStag, 1.03527e6}, {standoff, 0.0277422}},
		problem: func(tw float64) cataero.Problem { return fig9Problem(15, 20, 32, tw) }},
	{name: "eq-M10-20x32", phases: []string{"solve"}, twall: 1500, out: [2]output{{qStag, 405772}, {standoff, 0.0335723}},
		problem: func(tw float64) cataero.Problem { return fig9Problem(10, 20, 32, tw) }},
	{name: "vsl-rad", twall: 1200, out: [2]output{{qStag, 670324}, {standoff, 0.0281938}},
		problem: func(tw float64) cataero.Problem { return shuttleProblem(cataero.VSL, tw) }},
	{name: "ebl", twall: 1200, out: [2]output{{qStag, 670324}, {qEnd, 60421}},
		problem: func(tw float64) cataero.Problem { return shuttleProblem(cataero.EBL, tw) }},
	{name: "pns-eq", twall: 1200, out: [2]output{{qStag, 809681}, {qEnd, 65571.7}},
		problem: func(tw float64) cataero.Problem { return shuttleProblem(cataero.PNS, tw) }},
	{name: "shocktube-5mm", mode: modeTube, out: [2]output{{"T_frozen_K", 48476.8}, {"T_5mm_K", 9744.22}}},
}

// refitKind is in neither rotation: a probe kind every traced run executes,
// so that the fvm.refits counter has refits to count. It is a two-level
// implicit solve that re-fits its outer boundary to the shock every 40
// finest steps.
var refitKind = caseKind{name: "ns20x32-refit", phases: []string{"level1", "level0"}, twall: 600, out: [2]output{{qStag, 285169}, {standoff, 0.0461931}},
	problem: func(tw float64) cataero.Problem {
		p := smokeProblem(20, 32, 4000, tw)
		p.TimeStepping, p.Levels, p.GridSequencing, p.RefitEvery = "implicit", 2, cataero.ToggleOn, 40
		return p
	}}

// allKinds are every case kind: both rotations and the refit probe.
func allKinds() []*caseKind {
	var out []*caseKind
	for _, ks := range [][]caseKind{idealKinds, realGasKinds} {
		for i := range ks {
			out = append(out, &ks[i])
		}
	}
	return append(out, &refitKind)
}

// tubeSetup holds the shock-tube models, built once per setup (the class
// has no Session model stack).
type tubeSetup struct {
	mix  *thermo.Mixture
	mech *chem.Mechanism
}

func newTubeSetup() (*tubeSetup, error) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	mech, err := chem.AirMechanism(m)
	if err != nil {
		return nil, fmt.Errorf("shock-tube mechanism: %w", err)
	}
	return &tubeSetup{mix: m, mech: mech}, nil
}

// solve runs the Fig. 7 relaxation (10 km/s into 0.1 torr air) over the
// first 5 mm behind the shock and returns the frozen and 5 mm temperatures.
func (t *tubeSetup) solve(ctx context.Context) ([2]float64, error) {
	if err := ctx.Err(); err != nil {
		return [2]float64{}, err
	}
	prof, err := shocktube.Solve(shocktube.Problem{
		Mix: t.mix, Mech: t.mech,
		P1: 13.0, T1: 300, U1: 10000,
		Y1:   thermo.AirFreestreamMassFractions(t.mix.Species),
		XEnd: 0.005, NOut: 40,
	})
	if err != nil {
		return [2]float64{}, err
	}
	return [2]float64{prof.T[0], prof.T[len(prof.T)-1]}, nil
}
