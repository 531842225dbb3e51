package fvm

import (
	"context"
	"math"
	"strings"
	"testing"
)

// Limiter algebra: both limiters vanish at extrema (opposite-sign slopes),
// reproduce the common slope when the differences agree, and stay bounded by
// the larger one-sided difference; van Albada is smooth — a small slope
// perturbation moves the limited slope a little, never discontinuously.
func TestLimiterProperties(t *testing.T) {
	for name, lim := range map[string]func(a, b float64) float64{"minmod": minmod, "vanalbada": vanAlbada} {
		if got := lim(1, -1); got != 0 {
			t.Errorf("%s(1,-1) = %g, want 0", name, got)
		}
		if got := lim(0, 2); got != 0 {
			t.Errorf("%s(0,2) = %g, want 0", name, got)
		}
		if got := lim(3, 3); math.Abs(got-3) > 1e-12 {
			t.Errorf("%s(3,3) = %g, want 3", name, got)
		}
		for _, ab := range [][2]float64{{1, 2}, {2, 1}, {0.1, 5}, {-1, -4}} {
			got := lim(ab[0], ab[1])
			bound := math.Max(math.Abs(ab[0]), math.Abs(ab[1]))
			if math.Abs(got) > bound+1e-12 {
				t.Errorf("%s(%g,%g) = %g exceeds the slope bound %g", name, ab[0], ab[1], got, bound)
			}
			if got*ab[0] < 0 {
				t.Errorf("%s(%g,%g) = %g flips sign", name, ab[0], ab[1], got)
			}
		}
	}
	// Smoothness: van Albada has no branch jump around a == b.
	a, b := 1.0, 1.0
	base := vanAlbada(a, b)
	if step := math.Abs(vanAlbada(a, b+1e-6) - base); step > 1e-5 {
		t.Errorf("vanAlbada jumps by %g across a tiny slope perturbation", step)
	}
}

// An unknown limiter name fails at solver construction with the registered
// list, mirroring the flux-kernel and integrator registries.
func TestLimiterValidation(t *testing.T) {
	if names := Limiters(); len(names) != 2 || names[0] != "minmod" || names[1] != "vanalbada" {
		t.Fatalf("Limiters() = %v", names)
	}
	g, o := seqCase(t)
	o.Limiter = "superbee"
	if _, err := New(g, o); err == nil || !strings.Contains(err.Error(), "vanalbada") {
		t.Errorf("unknown limiter error %v, want the registered list", err)
	}
}

// The smooth van Albada limiter must let the implicit CFL ramp climb higher
// than minmod on the reference viscous case: minmod's branch switching makes
// the defect-correction residual limit-cycle, which the convergence-gated
// ramp reads as a stall and answers by halving and dynamically capping the
// CFL. With the smooth limiter the limited slopes vary continuously, the
// limit cycle weakens, and the ramp's dynamic cap settles higher (ROADMAP
// PR 4 follow-on).
func TestVanAlbadaLiftsRampCap(t *testing.T) {
	caps := map[string]float64{}
	for _, lim := range []string{"minmod", "vanalbada"} {
		g, o, err := ReferenceViscousCase(20, 32, "implicit")
		if err != nil {
			t.Fatal(err)
		}
		o.Limiter = lim
		o.Pool = NewPool(1) // deterministic reduction order
		s, _, err := SolveMultilevel(context.Background(), g, o, 6000, 5e-4, SequenceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		caps[lim] = s.imp.cap
		s.Close()
		o.Pool.Close()
	}
	if caps["vanalbada"] <= caps["minmod"] {
		t.Errorf("van Albada dynamic cap %.2f did not rise above minmod's %.2f",
			caps["vanalbada"], caps["minmod"])
	}
}

// Both limiters converge the case to the same physics: the limiter shapes
// the path to steady state, not the captured shock.
func TestLimitersAgreeOnPhysics(t *testing.T) {
	g, o := seqCase(t)
	var pstag [2]float64
	for i, lim := range []string{"minmod", "vanalbada"} {
		o.Limiter = lim
		s, _, err := SolveMultilevel(context.Background(), g, o, 4000, 1e-3, SequenceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pstag[i] = s.Primitive(0, 0).P
		s.Close()
	}
	if math.Abs(pstag[1]-pstag[0])/pstag[0] > 0.02 {
		t.Errorf("limiters disagree on stagnation pressure: %g vs %g", pstag[0], pstag[1])
	}
}
