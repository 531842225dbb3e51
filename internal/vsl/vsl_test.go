package vsl

import (
	"context"
	"math"
	"testing"

	"cataero/internal/chem"
	"cataero/internal/radiation"
	"cataero/internal/thermo"
	"cataero/internal/transport"
)

func titanInputs(t *testing.T) Inputs {
	t.Helper()
	m := thermo.NewMixture(thermo.TitanSpecies())
	return Inputs{
		Mix: m,
		Eq:  chem.NewEquilibriumSolver(m),
		Tr:  transport.NewMixture(m),
		Rad: radiation.NewTitanModel(m, 300),
		Y0:  thermo.TitanFreestreamMassFractions(m.Species),
		// Peak-heating-like point of a 12 km/s Titan entry.
		PInf: 8.0, TInf: 165, VInf: 9500,
		Rn: 1.25, TWall: 1800, NPts: 40,
	}
}

func TestTitanStagnationLine(t *testing.T) {
	in := titanInputs(t)
	r, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	// Convective heating: tens of W/cm^2 => 1e5-1e7 W/m^2 band.
	if r.QConv < 1e4 || r.QConv > 1e7 {
		t.Errorf("QConv=%g W/m^2 outside band", r.QConv)
	}
	// Radiative heating present (CN violet) and within physical bounds.
	if r.QRad <= 0 {
		t.Error("no radiative heating in a Titan shock layer")
	}
	sbLimit := thermo.SigmaSB * math.Pow(r.Edge.T, 4)
	if r.QRad > sbLimit {
		t.Errorf("QRad=%g exceeds blackbody bound %g", r.QRad, sbLimit)
	}
	// Standoff a few percent of the nose radius.
	if r.Standoff < 0.005*in.Rn || r.Standoff > 0.3*in.Rn {
		t.Errorf("standoff %g m outside band for Rn=%g", r.Standoff, in.Rn)
	}
	// Temperature profile: wall-cold, rising to the shock-layer value.
	if r.T[0] > in.TWall*1.3 {
		t.Errorf("wall temperature %g should be near %g", r.T[0], in.TWall)
	}
	last := len(r.T) - 1
	if r.T[last] < 4000 {
		t.Errorf("shock-layer temperature %g too cold", r.T[last])
	}
	for i := 1; i < len(r.T); i++ {
		if r.T[i] < r.T[i-1]-50 {
			t.Errorf("temperature profile not monotone at %d: %g < %g", i, r.T[i], r.T[i-1])
		}
	}
}

func TestTitanSpeciesProfile(t *testing.T) {
	// The Fig. 3 content: near the wall the gas is recombined (N2, CH4
	// products); in the hot layer CN, H, H2 appear; N2 dominates everywhere.
	in := titanInputs(t)
	r, err := Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Y) - 1
	wall := r.Species[0]
	hot := r.Species[last]
	if wall[thermo.TiN2] < 0.8 {
		t.Errorf("wall N2 fraction %g should dominate", wall[thermo.TiN2])
	}
	if hot[thermo.TiCN] <= wall[thermo.TiCN] {
		t.Errorf("CN should grow toward the shock: wall %g hot %g",
			wall[thermo.TiCN], hot[thermo.TiCN])
	}
	if hot[thermo.TiH] < 1e-5 {
		t.Errorf("atomic H missing in the hot layer: %g", hot[thermo.TiH])
	}
	// Mass fractions normalized at every point.
	for i, ys := range r.Species {
		sum := 0.0
		for _, v := range ys {
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("point %d: species sum %g", i, sum)
		}
	}
}
