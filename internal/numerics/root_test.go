package numerics

import (
	"math"
	"testing"
)

func TestBrentRoots(t *testing.T) {
	cases := []struct {
		f    func(float64) float64
		a, b float64
		root float64
	}{
		{func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{func(x float64) float64 { return math.Cos(x) }, 0, 3, math.Pi / 2},
		{func(x float64) float64 { return x }, -1, 1, 0},
		{func(x float64) float64 { return math.Exp(x) - 5 }, 0, 4, math.Log(5)},
	}
	for i, c := range cases {
		x, err := Brent(c.f, c.a, c.b, 1e-12)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if math.Abs(x-c.root) > 1e-9 {
			t.Errorf("case %d: got %g want %g", i, x, c.root)
		}
	}
}

func TestBrentNotBracketed(t *testing.T) {
	if _, err := Brent(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-10); err == nil {
		t.Fatal("expected bracket error")
	}
}

func TestBrentEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x - 1 }
	if x, err := Brent(f, 1, 2, 1e-12); err != nil || x != 1 {
		t.Errorf("endpoint a root: x=%g err=%v", x, err)
	}
	if x, err := Brent(f, 0, 1, 1e-12); err != nil || x != 1 {
		t.Errorf("endpoint b root: x=%g err=%v", x, err)
	}
}
