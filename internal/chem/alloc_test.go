//go:build !race

// The race detector makes sync.Pool drop a random share of its Puts, so the
// allocation gates run in plain builds only.

package chem

import (
	"testing"

	"cataero/internal/thermo"
	"cataero/internal/transport"
)

// titanMechanism is a small Titan mechanism for the allocation gates: a
// third-body dissociation, a fragmentation and an exchange reaction.
func titanMechanism(t *testing.T, m *thermo.Mixture) *Mechanism {
	t.Helper()
	eff := make([]float64, m.Len())
	for i := range eff {
		eff[i] = 1
	}
	ix := m.Index
	mech, err := NewMechanism(m, []*Reaction{
		{Name: "N2+M=2N+M", LHS: []Stoich{{ix("N2"), 1}}, RHS: []Stoich{{ix("N"), 2}},
			A: 7e15, N: -1.6, Theta: 113200, TMode: TaGeom, ThirdBody: true, Eff: eff},
		{Name: "CH4=CH+3H", LHS: []Stoich{{ix("CH4"), 1}}, RHS: []Stoich{{ix("CH"), 1}, {ix("H"), 3}},
			A: 1e12, Theta: 50000},
		{Name: "N2+C=CN+N", LHS: []Stoich{{ix("N2"), 1}, {ix("C"), 1}}, RHS: []Stoich{{ix("CN"), 1}, {ix("N"), 1}},
			A: 1e8, Theta: 23000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mech
}

// TestChemistryZeroAlloc gates the allocation-free chemistry calls on
// air-11 and Titan: after a warm-up call, the finite-rate sources, the
// temperature inversions and the transport mix allocate nothing, and the
// Gibbs solves allocate only the composition they return.
func TestChemistryZeroAlloc(t *testing.T) {
	air := thermo.NewMixture(thermo.AirSpecies11())
	airMech, err := AirMechanism(air)
	if err != nil {
		t.Fatal(err)
	}
	titan := thermo.NewMixture(thermo.TitanSpecies())
	for _, c := range []struct {
		name string
		mech *Mechanism
		y0   []float64
		T    float64
	}{
		{"air-11", airMech, thermo.AirFreestreamMassFractions(air.Species), 9000},
		{"titan", titanMechanism(t, titan), thermo.TitanFreestreamMassFractions(titan.Species), 6000},
	} {
		m := c.mech.Mix
		eq := NewEquilibriumSolver(m)
		tr := transport.NewMixture(m)
		const rho, p = 0.01, 1e4
		T, Tv := c.T, 0.8*c.T
		y, err := eq.CompositionRhoT(rho, T, c.y0)
		if err != nil {
			t.Fatal(err)
		}
		wdot := make([]float64, m.Len())
		h, ev := m.Enthalpy(T, y), m.EVibPool(Tv, y)
		for _, g := range []struct {
			name string
			max  float64
			f    func() error
		}{
			{"Production", 0, func() error { c.mech.Production(rho, T, Tv, y, wdot); return nil }},
			{"VibSource", 0, func() error { c.mech.VibSource(rho, p, T, Tv, y, wdot); return nil }},
			{"TemperatureFromH", 0, func() error { _, err := m.TemperatureFromH(h, y, T/2); return err }},
			{"TvFromPool", 0, func() error { _, err := m.TvFromPool(ev, y, 0); return err }},
			{"ViscosityConductivity", 0, func() error { tr.ViscosityConductivity(T, y); return nil }},
			{"CompositionPT", 1, func() error { _, _, err := eq.CompositionPT(p, T, c.y0); return err }},
			{"CompositionRhoT", 1, func() error { _, err := eq.CompositionRhoT(rho, T, c.y0); return err }},
		} {
			if err := g.f(); err != nil {
				t.Fatalf("%s %s: %v", c.name, g.name, err)
			}
			if n := testing.AllocsPerRun(50, func() { _ = g.f() }); n > g.max {
				t.Errorf("%s %s: %g allocs per call, want at most %g", c.name, g.name, n, g.max)
			}
		}
	}
}
