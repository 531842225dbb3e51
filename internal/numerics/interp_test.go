package numerics

import (
	"testing"
)

func TestLinearInterpBasics(t *testing.T) {
	xs := []float64{0, 1, 2}
	ys := []float64{0, 10, 40}
	if got := LinearInterp(xs, ys, 0.5); got != 5 {
		t.Errorf("got %g want 5", got)
	}
	if got := LinearInterp(xs, ys, 1.5); got != 25 {
		t.Errorf("got %g want 25", got)
	}
	// Linear extrapolation beyond ends.
	if got := LinearInterp(xs, ys, 3); got != 70 {
		t.Errorf("extrapolated got %g want 70", got)
	}
	if got := LinearInterp(xs, ys, -1); got != -10 {
		t.Errorf("extrapolated got %g want -10", got)
	}
	if got := LinearInterp([]float64{2}, []float64{7}, 100); got != 7 {
		t.Errorf("single point got %g want 7", got)
	}
}

func TestStretch1D(t *testing.T) {
	pts := Stretch1D(21, 1.05)
	if pts[0] != 0 || pts[len(pts)-1] != 1 {
		t.Fatalf("endpoints wrong: %g %g", pts[0], pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Fatalf("not monotone at %d: %g <= %g", i, pts[i], pts[i-1])
		}
	}
	// Clustering near 0: first spacing much smaller than last.
	first := pts[1] - pts[0]
	last := pts[len(pts)-1] - pts[len(pts)-2]
	if first >= last {
		t.Errorf("no wall clustering: first=%g last=%g", first, last)
	}
}
