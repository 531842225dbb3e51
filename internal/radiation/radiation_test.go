package radiation

import (
	"math"
	"testing"

	"cataero/internal/chem"
	"cataero/internal/thermo"
)

func TestPlanckKnownValues(t *testing.T) {
	// Peak of B_lambda at T=5800K is near 500 nm (Wien: 2898/5800 um).
	peakL := 0.0
	peakB := 0.0
	for l := 200.0; l < 2000; l += 5 {
		if b := PlanckLambda(l*1e-9, 5800); b > peakB {
			peakB, peakL = b, l
		}
	}
	if math.Abs(peakL-500) > 20 {
		t.Errorf("Planck peak at %g nm want ~500", peakL)
	}
	// Stefan-Boltzmann: pi * integral B dl = sigma T^4.
	T := 3000.0
	sum := 0.0
	dl := 2e-9
	for l := 50e-9; l < 60e-6; l += dl {
		sum += PlanckLambda(l, T) * dl
	}
	want := thermo.SigmaSB * math.Pow(T, 4)
	if math.Abs(math.Pi*sum-want) > 0.02*want {
		t.Errorf("Stefan-Boltzmann: pi*int=%g want %g", math.Pi*sum, want)
	}
	if PlanckLambda(500e-9, 0) != 0 {
		t.Error("B(T=0) should be 0")
	}
}

func airRadSetup(t *testing.T) (*thermo.Mixture, *Model, []float64) {
	t.Helper()
	m := thermo.NewMixture(thermo.AirSpecies11())
	md := NewAirModel(m, 400)
	eq := chem.NewEquilibriumSolver(m)
	y0 := thermo.AirFreestreamMassFractions(m.Species)
	y, err := eq.CompositionRhoT(1e-3, 9000, y0)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumberDensities(1e-3, y)
	return m, md, n
}

func TestEmissionFeatures(t *testing.T) {
	_, md, n := airRadSetup(t)
	jl := make([]float64, len(md.LambdaNm))
	md.Emission(n, 9000, 9000, jl)
	// Find local value near the N2+ first negative head (391 nm) and in a
	// featureless gap (still nonzero from continuum but much smaller).
	at := func(lnm float64) float64 {
		best, bd := 0.0, math.Inf(1)
		for i, l := range md.LambdaNm {
			if d := math.Abs(l - lnm); d < bd {
				bd, best = d, jl[i]
			}
		}
		return best
	}
	if at(391.4) <= 0 {
		t.Fatal("no emission at N2+ band head")
	}
	if at(391.4) < 5*at(620) {
		t.Errorf("N2+ head %g not prominent vs gap %g", at(391.4), at(620))
	}
	// O 777 line present.
	if at(777.3) <= at(740) {
		t.Errorf("O 777 line missing: %g vs background %g", at(777.3), at(740))
	}
}

func TestEmissionIncreasesWithTex(t *testing.T) {
	_, md, n := airRadSetup(t)
	jl1 := make([]float64, len(md.LambdaNm))
	jl2 := make([]float64, len(md.LambdaNm))
	md.Emission(n, 9000, 6000, jl1)
	md.Emission(n, 9000, 12000, jl2)
	i1 := md.IntegrateSpectrum(jl1)
	i2 := md.IntegrateSpectrum(jl2)
	if i2 <= i1 {
		t.Errorf("emission should grow with Tex: %g vs %g", i1, i2)
	}
}

func TestSlabThinLimitMatches(t *testing.T) {
	_, md, n := airRadSetup(t)
	// A very thin slab: transport result approaches the optically thin bound.
	layers := UniformSlab(4, 1e-4, 9000, 9000, n)
	res := md.SolveSlab(layers)
	thin := md.OpticallyThinFlux(layers)
	if res.QWall <= 0 {
		t.Fatal("no wall flux")
	}
	if math.Abs(res.QWall-thin)/thin > 0.1 {
		t.Errorf("thin slab: transport %g vs thin limit %g", res.QWall, thin)
	}
}

func TestSlabThickLimitBounded(t *testing.T) {
	_, md, n := airRadSetup(t)
	// Growing the slab cannot push the flux beyond the blackbody bound at
	// the source temperature.
	T := 9000.0
	sigmaT4 := thermo.SigmaSB * math.Pow(T, 4)
	prev := 0.0
	for _, d := range []float64{0.001, 0.01, 0.1, 1, 10} {
		res := md.SolveSlab(UniformSlab(8, d, T, T, n))
		if res.QWall < prev*0.99 {
			t.Errorf("flux should grow with thickness: %g after %g", res.QWall, prev)
		}
		prev = res.QWall
		if res.QWall > sigmaT4 {
			t.Errorf("flux %g exceeds blackbody %g", res.QWall, sigmaT4)
		}
	}
}

func TestTitanModelCNDominates(t *testing.T) {
	m := thermo.NewMixture(thermo.TitanSpecies())
	md := NewTitanModel(m, 400)
	eq := chem.NewEquilibriumSolver(m)
	y0 := thermo.TitanFreestreamMassFractions(m.Species)
	y, _, err := eq.CompositionPT(5e4, 7000, y0)
	if err != nil {
		t.Fatal(err)
	}
	rho := 5e4 / (m.R(y) * 7000)
	n := m.NumberDensities(rho, y)
	jl := make([]float64, len(md.LambdaNm))
	md.Emission(n, 7000, 7000, jl)
	// CN violet (388 nm) should carry a large share of the radiance.
	peak, peakL := 0.0, 0.0
	for i, l := range md.LambdaNm {
		if jl[i] > peak {
			peak, peakL = jl[i], l
		}
	}
	if math.Abs(peakL-388.3) > 12 {
		t.Errorf("Titan spectrum peak at %g nm; expected the CN violet head", peakL)
	}
}

func TestEmptySlab(t *testing.T) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	md := NewAirModel(m, 100)
	res := md.SolveSlab(nil)
	if res.QWall != 0 {
		t.Error("empty slab should radiate nothing")
	}
}
