package cataero

import (
	"context"
	"testing"

	"cataero/internal/chem"
	"cataero/internal/shocktube"
	"cataero/internal/thermo"
)

// shuttleTierProblem is the quickstart Shuttle entry point (6.74 km/s at
// about 71 km) in equilibrium air, solved by one of the engineering tiers:
// VSL with radiation, E+BL with a fully catalytic wall, or PNS.
func shuttleTierProblem(class SolverClass) Problem {
	p := Problem{
		Class: class, Chemistry: EquilibriumAir,
		PInf: 4.8, TInf: 217, VInf: 6740,
		NoseRadius: 0.6, TWall: 1200, NStations: 16,
	}
	switch class {
	case VSL:
		p.Radiation = true
	case EBL:
		p.GammaW = 1
	}
	return p
}

// shockTube5mm is the Fig. 7 relaxation (10 km/s into 0.1 torr air) over
// the first 5 mm behind the shock.
func shockTube5mm(tb testing.TB) shocktube.Problem {
	m := thermo.NewMixture(thermo.AirSpecies11())
	mech, err := chem.AirMechanism(m)
	if err != nil {
		tb.Fatal(err)
	}
	return shocktube.Problem{
		Mix: m, Mech: mech,
		P1: 13.0, T1: 300, U1: 10000,
		Y1:   thermo.AirFreestreamMassFractions(m.Species),
		XEnd: 0.005, NOut: 40,
	}
}

// TestEngineeringTierGolden pins the full-precision outputs of the cheap
// tiers: VSL, E+BL and PNS at the Shuttle point, each solved in a fresh
// Session, and the Fig. 7 shock tube. The engineering-tier speedups
// (precomputed species-pair tables, one stagnation solve per run) are
// algebraically exact rewrites, so every value here must stay bit-identical;
// a change that moves one is a numerics change, not a refactor.
func TestEngineeringTierGolden(t *testing.T) {
	type pin struct {
		name      string
		got, want float64
	}
	solve := func(class SolverClass) *Environment {
		t.Helper()
		env, err := NewSession().Solve(context.Background(), shuttleTierProblem(class))
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		return env
	}
	last := func(env *Environment) float64 { return env.Surface[len(env.Surface)-1].Q }

	vsl := solve(VSL)
	ebl := solve(EBL)
	pns := solve(PNS)
	prof, err := shocktube.Solve(shockTube5mm(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []pin{
		{"vsl q_conv", vsl.QConvStag, 670324.44042583276},
		{"vsl q_rad", vsl.QRadStag, 38.739983623008193},
		{"vsl standoff", vsl.Standoff, 0.028193810928031804},
		{"ebl q_stag", ebl.QConvStag, 670324.44042583276},
		{"ebl last station", last(ebl), 60421.046129908602},
		{"pns q_stag", pns.QConvStag, 809680.53323293943},
		{"pns last station", last(pns), 65571.723009198118},
		{"shocktube T_frozen", prof.T[0], 48476.815241166951},
		{"shocktube T_5mm", prof.T[len(prof.T)-1], 9744.2215649822265},
	} {
		if c.got != c.want {
			t.Errorf("%s = %.17g, want %.17g", c.name, c.got, c.want)
		}
	}
}
