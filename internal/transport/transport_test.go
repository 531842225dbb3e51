package transport

import (
	"math"
	"testing"

	"cataero/internal/chem"
	"cataero/internal/shock"
	"cataero/internal/thermo"
)

// Wilke combines species viscosities (or conductivities) phi_s with mole
// fractions x into a mixture value by Wilke's semi-empirical rule. It is the
// scalar form, computing each pair's molar-mass factors on the spot: the
// reference the tabulated Mixture.wilke must reproduce bit for bit.
func Wilke(species []*thermo.Species, x, phi []float64) float64 {
	n := len(species)
	mix := 0.0
	for i := 0; i < n; i++ {
		if x[i] <= 0 {
			continue
		}
		den := 0.0
		for j := 0; j < n; j++ {
			if x[j] <= 0 {
				continue
			}
			wij := phiWilke(phi[i], phi[j], species[i].W, species[j].W)
			den += x[j] * wij
		}
		if den > 0 {
			mix += x[i] * phi[i] / den
		}
	}
	return mix
}

func phiWilke(mi, mj, wi, wj float64) float64 {
	if mj <= 0 {
		return 1
	}
	r := math.Sqrt(mi/mj) * math.Pow(wj/wi, 0.25)
	num := (1 + r) * (1 + r)
	den := math.Sqrt(8 * (1 + wi/wj))
	return num / den
}

// scalarTransport is the scalar-form mixture viscosity, conductivity and
// Prandtl number: every species value evaluated separately for each
// property, mixed by the scalar Wilke.
func scalarTransport(m *thermo.Mixture, T float64, y []float64) (mu, k, pr float64) {
	x := m.MoleFractions(y)
	mus := make([]float64, m.Len())
	ks := make([]float64, m.Len())
	for i, s := range m.Species {
		if x[i] > 0 {
			mus[i] = SpeciesViscosity(s, T)
			ks[i] = SpeciesConductivity(s, T, SpeciesViscosity(s, T))
		}
	}
	mu, k = Wilke(m.Species, x, mus), Wilke(m.Species, x, ks)
	pr = 0.72
	if k > 0 {
		pr = m.Cp(T, y) * mu / k
	}
	return mu, k, pr
}

// TestWilkeTablesMatchScalar: the tabulated pair factors change the cost of
// a mixing sum, not its value. Viscosity, ViscosityConductivity and the
// FrozenPrandtl the boundary-layer closures form from it equal the scalar
// form exactly, over 200-30000 K, for
// air-11 and Titan, at the freestream, an equilibrium stagnation state, a
// pure species and compositions with zero entries.
func TestWilkeTablesMatchScalar(t *testing.T) {
	for _, c := range []struct {
		name    string
		species []*thermo.Species
		y0      func([]*thermo.Species) []float64
		p, T, u float64 // freestream of the stagnation composition
		pure    int
	}{
		{"air11", thermo.AirSpecies11(), thermo.AirFreestreamMassFractions, 4.8, 217, 6740, thermo.AirN2},
		{"titan", thermo.TitanSpecies(), thermo.TitanFreestreamMassFractions, 120, 165, 7500, thermo.TiCH4},
	} {
		m := thermo.NewMixture(c.species)
		tr := NewMixture(m)
		y0 := c.y0(m.Species)
		stag, err := shock.StagnationEquilibrium(chem.NewEquilibriumSolver(m), y0, c.p, c.T, c.u)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pure := make([]float64, m.Len())
		pure[c.pure] = 1
		// Zero entries among nonzero ones: every other species of the
		// stagnation composition, renormalized.
		sparse := append([]float64(nil), stag.Y...)
		for i := range sparse {
			if i%2 == 1 {
				sparse[i] = 0
			}
		}
		thermo.Normalize(sparse)
		comps := map[string][]float64{"freestream": y0, "stagnation": stag.Y, "pure": pure, "sparse": sparse}
		var temps []float64
		for T := 200.0; T < 30000; T *= 1.25 {
			temps = append(temps, T)
		}
		temps = append(temps, 30000)
		for label, y := range comps {
			for _, T := range temps {
				mu, k, pr := scalarTransport(m, T, y)
				gmu, gk := tr.ViscosityConductivity(T, y)
				for _, v := range []struct {
					name      string
					got, want float64
				}{
					{"Viscosity", tr.Viscosity(T, y), mu},
					{"FrozenPrandtl", FrozenPrandtl(m.Cp(T, y), gmu, gk), pr},
					{"ViscosityConductivity mu", gmu, mu},
					{"ViscosityConductivity k", gk, k},
				} {
					if v.got != v.want || math.IsNaN(v.want) {
						t.Errorf("%s %s T=%g: %s = %.17g, scalar form %.17g", c.name, label, T, v.name, v.got, v.want)
					}
				}
			}
		}
	}
}

func TestSutherlandSeaLevel(t *testing.T) {
	// Air at 288.15 K: mu = 1.789e-5 kg/(m s).
	mu := Sutherland(288.15)
	if math.Abs(mu-1.789e-5) > 0.02e-5 {
		t.Errorf("mu=%g want ~1.789e-5", mu)
	}
	// Monotone increasing.
	if Sutherland(600) <= mu {
		t.Error("viscosity should increase with T")
	}
}

func TestBlottnerN2MatchesSutherlandNearAmbient(t *testing.T) {
	sp := thermo.AirSpecies11()
	n2 := sp[thermo.AirN2]
	// N2 viscosity at 300 K ~ 1.78e-5; Blottner fit should be within ~15%.
	mu := SpeciesViscosity(n2, 300)
	if mu < 1.4e-5 || mu > 2.2e-5 {
		t.Errorf("mu(N2,300)=%g implausible", mu)
	}
}

func TestKineticTheoryFallback(t *testing.T) {
	ti := thermo.TitanSpecies()
	ch4 := ti[thermo.TiCH4]
	// CH4 at 300 K: mu ~ 1.1e-5 kg/(m s).
	mu := SpeciesViscosity(ch4, 300)
	if mu < 0.7e-5 || mu > 1.6e-5 {
		t.Errorf("mu(CH4,300)=%g want ~1.1e-5", mu)
	}
	// H2 at 300 K: mu ~ 0.89e-5.
	h2 := ti[thermo.TiH2]
	mu = SpeciesViscosity(h2, 300)
	if mu < 0.6e-5 || mu > 1.3e-5 {
		t.Errorf("mu(H2,300)=%g want ~0.89e-5", mu)
	}
}

func TestOmega22Limits(t *testing.T) {
	// Collision integral decreases with reduced temperature and approaches
	// ~1 at high T*.
	if Omega22(1) <= Omega22(10) {
		t.Error("Omega22 should decrease with T*")
	}
	if v := Omega22(100); v < 0.5 || v > 1.2 {
		t.Errorf("Omega22(100)=%g want ~0.58-1", v)
	}
}

func TestWilkeMixtureViscosityAir(t *testing.T) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	tr := NewMixture(m)
	y := thermo.AirFreestreamMassFractions(m.Species)
	mu := tr.Viscosity(300, y)
	// Air at 300 K: 1.85e-5 kg/(m s) +- fit error.
	if mu < 1.5e-5 || mu > 2.2e-5 {
		t.Errorf("mu(air,300)=%g want ~1.85e-5", mu)
	}
	// Pure-species limit: Wilke reduces to the species value.
	yp := make([]float64, m.Len())
	yp[thermo.AirN2] = 1
	muP := tr.Viscosity(500, yp)
	muS := SpeciesViscosity(m.Species[thermo.AirN2], 500)
	if math.Abs(muP-muS) > 1e-9 {
		t.Errorf("pure limit: %g vs %g", muP, muS)
	}
}

func TestConductivityAir(t *testing.T) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	tr := NewMixture(m)
	y := thermo.AirFreestreamMassFractions(m.Species)
	_, k := tr.ViscosityConductivity(300, y)
	// Air at 300 K: k ~ 0.026 W/(m K).
	if k < 0.018 || k > 0.038 {
		t.Errorf("k(air,300)=%g want ~0.026", k)
	}
}

// TestPrandtlAir: the frozen Prandtl number the boundary-layer closures
// form from ViscosityConductivity is air's ~0.7 at room temperature.
func TestPrandtlAir(t *testing.T) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	tr := NewMixture(m)
	y := thermo.AirFreestreamMassFractions(m.Species)
	mu, k := tr.ViscosityConductivity(300, y)
	pr := FrozenPrandtl(m.Cp(300, y), mu, k)
	if pr < 0.6 || pr > 0.85 {
		t.Errorf("Pr(air,300)=%g want ~0.7", pr)
	}
}

func TestViscosityIncreasesWithT(t *testing.T) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	tr := NewMixture(m)
	y := thermo.AirFreestreamMassFractions(m.Species)
	prev := tr.Viscosity(300, y)
	for _, T := range []float64{1000, 3000, 6000, 10000} {
		cur := tr.Viscosity(T, y)
		if cur <= prev {
			t.Errorf("viscosity not increasing at T=%g", T)
		}
		prev = cur
	}
}

func TestElectronViscosityNegligible(t *testing.T) {
	sp := thermo.AirSpecies11()
	if mu := SpeciesViscosity(sp[thermo.AirE], 10000); mu > 1e-8 {
		t.Errorf("electron viscosity should be negligible, got %g", mu)
	}
}
