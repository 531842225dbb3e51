package numerics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrapzSlice(t *testing.T) {
	x := Linspace(0, 1, 1001)
	y := make([]float64, len(x))
	for i, xv := range x {
		y[i] = xv * xv
	}
	got := TrapzSlice(x, y)
	if math.Abs(got-1.0/3.0) > 1e-6 {
		t.Errorf("got %g want 1/3", got)
	}
}

func TestE1KnownValues(t *testing.T) {
	// Reference values from Abramowitz & Stegun tables.
	cases := []struct{ x, want, tol float64 }{
		{0.5, 0.559774, 1e-4},
		{1.0, 0.219384, 1e-4},
		{2.0, 0.048901, 1e-4},
		{5.0, 0.001148, 5e-5},
	}
	for _, c := range cases {
		if got := E1(c.x); math.Abs(got-c.want) > c.tol {
			t.Errorf("E1(%g)=%g want %g", c.x, got, c.want)
		}
	}
	if !math.IsInf(E1(0), 1) {
		t.Error("E1(0) should be +Inf")
	}
}

func TestE2E3Limits(t *testing.T) {
	if E2(0) != 1 {
		t.Errorf("E2(0)=%g want 1", E2(0))
	}
	if E3(0) != 0.5 {
		t.Errorf("E3(0)=%g want 0.5", E3(0))
	}
	// Recurrence identity: E_{n+1}(x) = (exp(-x) - x E_n(x)) / n holds by
	// construction; check monotone decay instead.
	prev := math.Inf(1)
	for _, x := range []float64{0.1, 0.5, 1, 2, 4} {
		v := E2(x)
		if v >= prev || v <= 0 {
			t.Errorf("E2 not strictly decreasing positive at %g: %g", x, v)
		}
		prev = v
	}
}

// Property: E2, E3 stay within (0,1] and ordering E3 < E2 < E1 for x>0.
func TestExpIntOrdering(t *testing.T) {
	f := func(u float64) bool {
		x := math.Mod(math.Abs(u), 20) + 1e-3 // map to (0, 20]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		e1, e2, e3 := E1(x), E2(x), E3(x)
		return e3 > 0 && e3 < e2 && e2 < e1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestLinspaceLogspace(t *testing.T) {
	xs := Linspace(0, 1, 5)
	if len(xs) != 5 || xs[0] != 0 || xs[4] != 1 || math.Abs(xs[2]-0.5) > 1e-15 {
		t.Errorf("linspace wrong: %v", xs)
	}
	if got := Linspace(2, 9, 1); len(got) != 1 || got[0] != 2 {
		t.Errorf("single-point linspace wrong: %v", got)
	}
	ls := Logspace(1, 100, 3)
	if math.Abs(ls[1]-10) > 1e-12 {
		t.Errorf("logspace midpoint %g want 10", ls[1])
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("clamp broken")
	}
}
