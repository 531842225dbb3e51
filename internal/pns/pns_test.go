package pns

import (
	"context"
	"math"
	"testing"

	"cataero/internal/blayer"
	"cataero/internal/chem"
	"cataero/internal/geometry"
	"cataero/internal/shock"
	"cataero/internal/thermo"
	"cataero/internal/transport"
)

// STS-3-like case: V=6.74 km/s, h=71.3 km, alpha=40 deg on the equivalent
// axisymmetric body.
func sts3Setup(t *testing.T) (*chem.EquilibriumSolver, *transport.Mixture, []float64, blayer.FreeStream, geometry.Body) {
	t.Helper()
	m := thermo.NewMixture(thermo.AirSpecies11())
	eq := chem.NewEquilibriumSolver(m)
	tr := transport.NewMixture(m)
	y0 := thermo.AirFreestreamMassFractions(m.Species)
	fs := blayer.FreeStream{P: 4.8, T: 217, Rho: 7.5e-5, V: 6740}
	body := geometry.NewOrbiter().EquivalentAxisymmetric(40 * math.Pi / 180)
	return eq, tr, y0, fs, body
}

// equilibriumEdges solves the equilibrium stagnation state of fs and the
// edge distribution of ns stations expanding from it along body.
func equilibriumEdges(t *testing.T, eq *chem.EquilibriumSolver, tr *transport.Mixture, y0 []float64, fs blayer.FreeStream, body geometry.Body, ns int) []blayer.EdgeState {
	t.Helper()
	stag, err := shock.StagnationEquilibrium(eq, y0, fs.P, fs.T, fs.V)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := blayer.EdgeDistribution(eq, tr, y0, stag, fs, body, ns, nil)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

func TestMarchEquilibriumHeating(t *testing.T) {
	eq, tr, y0, fs, body := sts3Setup(t)
	edges := equilibriumEdges(t, eq, tr, y0, fs, body, 24)
	h0 := edges[0].H
	hw, err := WallEnthalpyEquilibrium(eq, y0, edges[0].P, 1100)
	if err != nil {
		t.Fatal(err)
	}
	props := EquilibriumProps(eq, tr, y0)
	res, err := March(context.Background(), edges, props, hw, h0, body.NoseRadius(), fs.P, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(edges) {
		t.Fatalf("stations %d want %d", len(res), len(edges))
	}
	// Stagnation heating: O(1e5-1e6) W/m^2 at the STS-3 point.
	if res[0].Q < 3e4 || res[0].Q > 3e6 {
		t.Errorf("q(0)=%g W/m^2 outside band", res[0].Q)
	}
	// Heating decays away from the nose (windward centerline shape).
	if res[len(res)-1].Q > 0.8*res[0].Q {
		t.Errorf("aft heating %g not below stagnation %g", res[len(res)-1].Q, res[0].Q)
	}
	// All fluxes positive and finite.
	for i, r := range res {
		if !(r.Q > 0) || math.IsInf(r.Q, 0) {
			t.Fatalf("station %d: q=%g", i, r.Q)
		}
	}
}

func TestMarchAgreesWithLeesShape(t *testing.T) {
	// The marching PNS solution and the Lees local-similarity distribution
	// should agree on the overall heating decay within ~40% pointwise.
	eq, tr, y0, fs, body := sts3Setup(t)
	edges := equilibriumEdges(t, eq, tr, y0, fs, body, 24)
	h0 := edges[0].H
	hw, err := WallEnthalpyEquilibrium(eq, y0, edges[0].P, 1100)
	if err != nil {
		t.Fatal(err)
	}
	res, err := March(context.Background(), edges, EquilibriumProps(eq, tr, y0), hw, h0, body.NoseRadius(), fs.P, nil)
	if err != nil {
		t.Fatal(err)
	}
	lees := blayer.LeesDistribution(edges, body.NoseRadius(), fs.P)
	for i := 2; i < len(res); i++ {
		ratio := res[i].Q / res[0].Q
		if lees[i] <= 0 {
			continue
		}
		if ratio/lees[i] > 1.8 || ratio/lees[i] < 0.4 {
			t.Errorf("station %d (s=%.2f): march ratio %.3f vs Lees %.3f",
				i, res[i].S, ratio, lees[i])
		}
	}
}

func TestIdealVsEquilibriumHeating(t *testing.T) {
	// The Fig. 6 comparison: the gamma=1.2 ideal-gas prediction runs hotter
	// than equilibrium air near the nose for a fully catalytic wall...
	// or at minimum the two must differ measurably and have the same shape.
	eq, tr, y0, fs, body := sts3Setup(t)
	edgesE := equilibriumEdges(t, eq, tr, y0, fs, body, 20)
	h0 := edgesE[0].H
	hwE, err := WallEnthalpyEquilibrium(eq, y0, edgesE[0].P, 1100)
	if err != nil {
		t.Fatal(err)
	}
	resE, err := March(context.Background(), edgesE, EquilibriumProps(eq, tr, y0), hwE, h0, body.NoseRadius(), fs.P, nil)
	if err != nil {
		t.Fatal(err)
	}
	edgesI, err := IdealEdgeDistribution(1.2, 287.05, fs, body, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	h0I := edgesI[0].H
	hwI := 1.2 * 287.05 / 0.2 * 1100
	resI, err := March(context.Background(), edgesI, IdealProps(1.2, 287.05), hwI, h0I, body.NoseRadius(), fs.P, nil)
	if err != nil {
		t.Fatal(err)
	}
	qE, qI := resE[0].Q, resI[0].Q
	if qE <= 0 || qI <= 0 {
		t.Fatalf("nonpositive stagnation heating: %g %g", qE, qI)
	}
	ratio := qI / qE
	if ratio < 0.5 || ratio > 3.5 {
		t.Errorf("ideal/equilibrium stagnation ratio %g outside (0.5,3.5)", ratio)
	}
	// Both decay along the body.
	if resE[len(resE)-1].Q > resE[0].Q || resI[len(resI)-1].Q > resI[0].Q {
		t.Error("heating should decay downstream in both models")
	}
}

func TestIdealEdgeDistribution(t *testing.T) {
	fs := blayer.FreeStream{P: 100, T: 250, Rho: 100 / (287.05 * 250), V: 6 * math.Sqrt(1.4*287.05*250)}
	body := geometry.NewSphere(0.5)
	edges, err := IdealEdgeDistribution(1.4, 287.05, fs, body, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Stagnation pressure matches the Rayleigh pitot value for M=6 (x46.81).
	if math.Abs(edges[0].P/100-46.81) > 0.5 {
		t.Errorf("pitot ratio %g want 46.81", edges[0].P/100)
	}
	// Total enthalpy conserved along the edge.
	h0 := edges[0].H
	for _, e := range edges[1:] {
		tot := e.H + 0.5*e.Ue*e.Ue
		if math.Abs(tot-h0) > 1e-6*h0 {
			t.Errorf("ideal edge total enthalpy drift at s=%g", e.S)
		}
	}
	if _, err := IdealEdgeDistribution(1.4, 287.05, blayer.FreeStream{P: 100, T: 250, Rho: 1, V: 10}, body, 5, nil); err == nil {
		t.Error("subsonic accepted")
	}
}

func TestMarchErrors(t *testing.T) {
	if _, err := March(context.Background(), nil, IdealProps(1.4, 287), 1e5, 1e7, 1, 10, nil); err == nil {
		t.Error("empty edges accepted")
	}
}
