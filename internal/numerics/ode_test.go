package numerics

import (
	"math"
	"testing"
)

func TestRKF45Harmonic(t *testing.T) {
	// y'' = -y as a system; after 2*pi returns to initial state.
	y := []float64{1, 0}
	f := func(x float64, y, dy []float64) {
		dy[0] = y[1]
		dy[1] = -y[0]
	}
	if _, err := RKF45(f, 0, 2*math.Pi, y, RKF45Options{RelTol: 1e-10, AbsTol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-7 || math.Abs(y[1]) > 1e-7 {
		t.Errorf("state after full period: %v", y)
	}
}

func TestRKF45StopPredicate(t *testing.T) {
	y := []float64{0}
	f := func(x float64, y, dy []float64) { dy[0] = 1 }
	xEnd, err := RKF45(f, 0, 10, y, RKF45Options{
		Stop: func(x float64, y []float64) bool { return y[0] >= 2 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if xEnd >= 9.99 {
		t.Errorf("stop predicate ignored, reached x=%g", xEnd)
	}
	if y[0] < 2-1e-6 {
		t.Errorf("stopped before condition: y=%g", y[0])
	}
}

func TestRKF45Monitor(t *testing.T) {
	count := 0
	y := []float64{1}
	f := func(x float64, y, dy []float64) { dy[0] = -y[0] }
	_, err := RKF45(f, 0, 1, y, RKF45Options{Monitor: func(x float64, y []float64) { count++ }})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("monitor never called")
	}
}

func TestRKF45Backward(t *testing.T) {
	y := []float64{math.Exp(-1)}
	f := func(x float64, y, dy []float64) { dy[0] = -y[0] }
	if _, err := RKF45(f, 1, 0, y, RKF45Options{}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-6 {
		t.Errorf("backward integration y(0)=%g want 1", y[0])
	}
}

func TestStiffStepperDecay(t *testing.T) {
	// Very stiff linear decay: dy/dt = -1e6 (y - 1); solution approaches 1.
	s := NewStiffStepper(1, func(y, dy []float64) {
		dy[0] = -1e6 * (y[0] - 1)
	})
	y := []float64{0}
	if err := s.Integrate(y, 1e-4, 1e-6); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-4 {
		t.Errorf("stiff decay y=%g want 1", y[0])
	}
}

func TestStiffStepperRobertsonLike(t *testing.T) {
	// Two-scale system: fast equilibration plus slow drift; checks stability.
	s := NewStiffStepper(2, func(y, dy []float64) {
		dy[0] = -1000*y[0] + 999*y[1]
		dy[1] = y[0] - y[1]
	})
	y := []float64{2, 1}
	if err := s.Integrate(y, 1.0, 1e-5); err != nil {
		t.Fatal(err)
	}
	// Eigenvector structure: fast mode dies, slow mode decays gently; both
	// components must remain finite and converge toward each other.
	if math.IsNaN(y[0]) || math.IsNaN(y[1]) {
		t.Fatal("stiff integration produced NaN")
	}
	if math.Abs(y[0]-y[1]) > 1e-2*(math.Abs(y[1])+1e-9) {
		t.Errorf("fast mode not equilibrated: %v", y)
	}
}
