package cataero

import (
	"context"
	"math"
	"testing"
)

// The root-package tests exercise the public API and the figure runners
// end to end; detailed physics tests live next to each internal package.

func TestPublicSolveVSL(t *testing.T) {
	env, err := NewSession().Solve(context.Background(), Problem{
		Class:     VSL,
		Chemistry: EquilibriumAir,
		PInf:      4.8, TInf: 217, VInf: 6740,
		NoseRadius: 0.6, TWall: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if env.QConvStag <= 0 {
		t.Error("no stagnation heating")
	}
}

func TestFig1Shape(t *testing.T) {
	r := Fig1FlightDomain()
	if len(r.Vehicles) != 4 {
		t.Fatalf("vehicles %d", len(r.Vehicles))
	}
	if r.GapFraction < 0.5 {
		t.Errorf("AOTV gap fraction %g should dominate", r.GapFraction)
	}
}

// TestFig2Shape checks the Fig. 2 content on the runner the figure uses:
// the convective pulse rises and falls inside the trajectory sweep, and the
// radiative pulse is significant for a 12 km/s Titan entry.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("trajectory sweep in short mode")
	}
	r, err := NewSession().Fig2TitanHeatingPulse(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := len(r.Time)
	if n < 5 {
		t.Fatalf("too few pulse points: %d", n)
	}
	if r.TPeakConv <= r.Time[0] || r.TPeakConv >= r.Time[n-1] {
		t.Errorf("convective peak at pulse endpoint (t=%g s, pulse %g..%g s)", r.TPeakConv, r.Time[0], r.Time[n-1])
	}
	if r.PeakRad <= 0 {
		t.Error("no radiative pulse")
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3TitanSpeciesProfile()
	if err != nil {
		t.Fatal(err)
	}
	if r.Delta <= 0 || r.Delta > 0.3 {
		t.Errorf("standoff %g m implausible", r.Delta)
	}
	if len(r.Species["CN"]) != len(r.YOverDelta) {
		t.Error("species arrays mismatched")
	}
}

func TestFig5Shape(t *testing.T) {
	secs := Fig5OrbiterGeometry(0)
	if len(secs) != 30 {
		t.Fatalf("default sections %d", len(secs))
	}
	if secs[len(secs)-1].HalfWidth < 10 {
		t.Error("wing half-span missing")
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("relaxation integration in short mode")
	}
	r, err := Fig7ShockRelaxation()
	if err != nil {
		t.Fatal(err)
	}
	if r.TFrozen < 35000 {
		t.Errorf("frozen T %g", r.TFrozen)
	}
	last := len(r.X) - 1
	if math.Abs(r.T[last]-r.Tv[last]) > 0.25*r.T[last] {
		t.Error("temperatures failed to merge")
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("spectra in short mode")
	}
	r, err := Fig8NoneqSpectra()
	if err != nil {
		t.Fatal(err)
	}
	// The N2+ first-negative region (390 nm) should be a strong feature.
	at := func(lnm float64) float64 {
		best, bd := 0.0, math.Inf(1)
		for i, l := range r.LambdaNm {
			if d := math.Abs(l - lnm); d < bd {
				bd, best = d, r.Computed[i]
			}
		}
		return best
	}
	if at(391.4) <= at(620)*2 {
		t.Errorf("N2+ band not prominent: %g vs %g", at(391.4), at(620))
	}
}
