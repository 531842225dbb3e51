package blayer

import (
	"math"
	"testing"

	"cataero/internal/chem"
	"cataero/internal/geometry"
	"cataero/internal/shock"
	"cataero/internal/thermo"
	"cataero/internal/transport"
)

func setup(t *testing.T) (*thermo.Mixture, *chem.EquilibriumSolver, *transport.Mixture, []float64) {
	t.Helper()
	m := thermo.NewMixture(thermo.AirSpecies11())
	return m, chem.NewEquilibriumSolver(m), transport.NewMixture(m), thermo.AirFreestreamMassFractions(m.Species)
}

// Shuttle-entry-like freestream: ~71 km, 6.7 km/s.
func shuttleFS() FreeStream {
	return FreeStream{P: 4.5, T: 216, Rho: 7.3e-5, V: 6740}
}

// shuttleEdges solves the equilibrium stagnation state of shuttleFS and the
// edge distribution of ns stations expanding from it along body.
func shuttleEdges(t *testing.T, body geometry.Body, ns int) ([]EdgeState, FreeStream) {
	t.Helper()
	_, eq, tr, y0 := setup(t)
	fs := shuttleFS()
	stag, err := shock.StagnationEquilibrium(eq, y0, fs.P, fs.T, fs.V)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := EdgeDistribution(eq, tr, y0, stag, fs, body, ns, nil)
	if err != nil {
		t.Fatal(err)
	}
	return edges, fs
}

func TestFayRiddellMagnitude(t *testing.T) {
	m, eq, tr, y0 := setup(t)
	fs := shuttleFS()
	in, err := StagnationFromFreestream(eq, y0, fs, 1200, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := FayRiddell(m, tr, in)
	if err != nil {
		t.Fatal(err)
	}
	// Shuttle nose stagnation heating at this condition: O(10^5..10^6) W/m^2
	// (tens of W/cm^2).
	if q < 5e4 || q > 5e6 {
		t.Errorf("q=%g W/m^2 outside plausible band", q)
	}
	// Sutton-Graves cross-check within a factor ~2.5.
	qsg := SuttonGraves(fs.Rho, fs.V, 0.6)
	if q < qsg/2.5 || q > qsg*2.5 {
		t.Errorf("Fay-Riddell %g vs Sutton-Graves %g disagree beyond 2.5x", q, qsg)
	}
}

func TestFayRiddellScalings(t *testing.T) {
	m, eq, tr, y0 := setup(t)
	fs := shuttleFS()
	in, err := StagnationFromFreestream(eq, y0, fs, 1200, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := FayRiddell(m, tr, in)
	// Doubling the nose radius reduces q by sqrt(2).
	in.NoseRadius = 1.2
	q2, _ := FayRiddell(m, tr, in)
	if math.Abs(q2/q1-1/math.Sqrt2) > 0.02 {
		t.Errorf("Rn scaling: q2/q1=%g want %g", q2/q1, 1/math.Sqrt2)
	}
	// Hotter wall lowers the heat flux.
	in.NoseRadius = 0.6
	in.WallT = 2000
	q3, _ := FayRiddell(m, tr, in)
	if q3 >= q1 {
		t.Errorf("hot-wall q=%g should fall below %g", q3, q1)
	}
	if _, err := FayRiddell(m, tr, StagnationInputs{NoseRadius: 0}); err == nil {
		t.Error("zero nose radius accepted")
	}
}

func TestSimilarityMatchesFayRiddell(t *testing.T) {
	m, eq, tr, y0 := setup(t)
	fs := shuttleFS()
	in, err := StagnationFromFreestream(eq, y0, fs, 1200, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	qFR, err := FayRiddell(m, tr, in)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveStagnation(m, tr, in.Edge, 1200, fs.P, 0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The similarity solution and the correlation should agree within ~40%
	// (they differ in property models and Lewis-number treatment).
	if sol.QWall < qFR*0.6 || sol.QWall > qFR*1.4 {
		t.Errorf("similarity q=%g vs Fay-Riddell %g beyond 40%%", sol.QWall, qFR)
	}
	// Profiles monotone 0->1.
	for i := 1; i < len(sol.F); i++ {
		if sol.F[i] < sol.F[i-1]-1e-6 {
			t.Fatalf("velocity profile not monotone at %d", i)
		}
	}
	if sol.GPrime0 <= 0 {
		t.Error("wall enthalpy gradient must be positive")
	}
	if sol.Delta <= 0 {
		t.Error("boundary layer thickness must be positive")
	}
}

func TestCatalyticWallOrdering(t *testing.T) {
	// The catalysis story of the paper's Fig. 6: noncatalytic < finite < fully.
	m, eq, tr, y0 := setup(t)
	fs := shuttleFS()
	in, err := StagnationFromFreestream(eq, y0, fs, 1200, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	var qs []float64
	for _, gw := range []float64{0, 0.01, 1} {
		sol, err := SolveStagnation(m, tr, in.Edge, 1200, fs.P, 0.6, gw)
		if err != nil {
			t.Fatalf("gammaW=%g: %v", gw, err)
		}
		qs = append(qs, sol.QWall)
	}
	if !(qs[0] < qs[1] && qs[1] < qs[2]) {
		t.Errorf("catalysis ordering broken: %v", qs)
	}
	// The noncatalytic wall should see substantially less heating when the
	// edge is strongly dissociated.
	if qs[0] > 0.9*qs[2] {
		t.Errorf("noncatalytic reduction too weak: %g vs %g", qs[0], qs[2])
	}
}

func TestEdgeDistributionSphere(t *testing.T) {
	edges, _ := shuttleEdges(t, geometry.NewSphere(0.6), 12)
	// Pressure falls monotonically away from the stagnation point.
	for i := 1; i < len(edges); i++ {
		if edges[i].P > edges[i-1].P+1e-9 {
			t.Errorf("edge pressure rising at station %d", i)
		}
	}
	// Edge velocity grows from zero.
	if edges[0].Ue > 50 {
		t.Errorf("stagnation edge velocity %g should be ~0", edges[0].Ue)
	}
	if edges[len(edges)-1].Ue < 500 {
		t.Errorf("downstream edge velocity %g too small", edges[len(edges)-1].Ue)
	}
	// Total enthalpy conserved along the edge: h + u^2/2 = const.
	h0 := edges[0].H
	for _, e := range edges[1:] {
		tot := e.H + 0.5*e.Ue*e.Ue
		if math.Abs(tot-h0) > 0.02*math.Abs(h0) {
			t.Errorf("edge total enthalpy drift at s=%g: %g vs %g", e.S, tot, h0)
		}
	}
}

func TestLeesDistributionShape(t *testing.T) {
	edges, fs := shuttleEdges(t, geometry.NewSphere(0.6), 20)
	qr := LeesDistribution(edges, 0.6, fs.P)
	if qr[0] != 1 {
		t.Errorf("q(0)=%g want 1", qr[0])
	}
	// Heating on a sphere decreases away from the stagnation point; the
	// classic result is q(90deg)/q(0) ~ 0.1-0.6.
	last := qr[len(qr)-1]
	if last > 0.8 || last < 0.02 {
		t.Errorf("q(90deg)/q0=%g outside classic band", last)
	}
	for i := 2; i < len(qr); i++ {
		if qr[i] > qr[i-1]*1.15 {
			t.Errorf("heating rising strongly at station %d: %g > %g", i, qr[i], qr[i-1])
		}
	}
}

func TestVelocityGradientNewtonian(t *testing.T) {
	edge := shock.StagnationState{P: 1000, Rho: 0.01}
	beta := VelocityGradient(edge, 10, 0.5)
	want := math.Sqrt(2*990/0.01) / 0.5
	if math.Abs(beta-want) > 1e-9 {
		t.Errorf("beta=%g want %g", beta, want)
	}
}
