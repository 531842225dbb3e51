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

// TestNSGolden pins the full-precision stagnation heating and shock standoff
// of the NS class: the smoke case file; bench.json on one, two and three
// levels; a 20x32 bench.json with mid-march refits on one and two levels,
// and capped at 60 steps on two; and Fig. 9 at quality 1, the north-star
// gate (about 229 W/cm² and 27 mm). The rows take every path of the one
// march: a one-level first step that latches the target, level handoffs,
// refits and a step-cap exit. Like TestEngineeringTierGolden it is
// bit-exact at any GOMAXPROCS, and a change that moves a value is a
// numerics change.
func TestNSGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solves in short mode")
	}
	type pin struct {
		name                string
		q, standoff         float64
		wantQ, wantStandoff float64
	}
	caseFile := func(path string, edit func(*Problem)) (q, standoff float64) {
		t.Helper()
		p, err := LoadCase(path)
		if err != nil {
			t.Fatal(err)
		}
		if edit != nil {
			edit(&p)
		}
		env, err := NewSession().Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return env.QConvStag, env.Standoff
	}
	const bench = "cmd/catsim/testdata/bench.json"
	levels := func(n int) func(*Problem) { return func(p *Problem) { p.Levels = n } }
	small := func(lv, maxSteps, refitEvery int) func(*Problem) {
		return func(p *Problem) {
			p.NI, p.NJ, p.MaxSteps, p.Levels, p.RefitEvery = 20, 32, maxSteps, lv, refitEvery
		}
	}
	smokeQ, smokeStandoff := caseFile("cmd/catsim/testdata/smoke.json", nil)
	benchQ, benchStandoff := caseFile(bench, nil)
	l2Q, l2Standoff := caseFile(bench, levels(2))
	l3Q, l3Standoff := caseFile(bench, levels(3))
	refit2Q, refit2Standoff := caseFile(bench, small(2, 4000, 40))
	refit1Q, refit1Standoff := caseFile(bench, small(1, 4000, 40))
	cappedQ, cappedStandoff := caseFile(bench, small(2, 60, 0))
	fig9, err := NewSession().Fig9HemisphereNS(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []pin{
		{"smoke.json", smokeQ, smokeStandoff, 77198.57348236826, 0.05338595953064993},
		{"bench.json single level", benchQ, benchStandoff, 359473.5553102671, 0.04537566409280199},
		{"bench.json levels 2", l2Q, l2Standoff, 358595.62652690936, 0.045375664092801991},
		{"bench.json levels 3", l3Q, l3Standoff, 356570.72777792747, 0.045375664092801991},
		{"bench.json 20x32 levels 2 refit 40", refit2Q, refit2Standoff, 285380.2612805565, 0.046193069222745381},
		{"bench.json 20x32 levels 1 refit 40", refit1Q, refit1Standoff, 284547.83604964451, 0.046574525343838463},
		{"bench.json 20x32 levels 2 capped at 60", cappedQ, cappedStandoff, 186315.10977051221, 0.048273662321149512},
		{"Fig. 9 quality 1", fig9.QStag, fig9.Standoff, 2292409.2674387903, 0.026946304892721287},
	} {
		if c.q != c.wantQ {
			t.Errorf("%s q_conv_stag = %.17g, want %.17g", c.name, c.q, c.wantQ)
		}
		if c.standoff != c.wantStandoff {
			t.Errorf("%s standoff = %.17g, want %.17g", c.name, c.standoff, c.wantStandoff)
		}
	}
}
