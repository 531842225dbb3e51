package fvm

import (
	"context"
	"math"
	"testing"

	"cataero/internal/gas"
	"cataero/internal/geometry"
	"cataero/internal/grid"
)

func seqCase(t *testing.T) (*grid.Grid2D, Options) {
	t.Helper()
	body := geometry.NewSphere(1.0)
	g, err := grid.NewBlunt(body, body.MaxS(), 16, 24, func(s float64) float64 {
		return 0.35 + 0.35*s
	}, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	g.Axisymmetric = true
	aInf := math.Sqrt(1.4 * 287.05 * 250)
	return g, Options{
		Gas:          gas.NewIdealAir(),
		FreestreamV:  [2]float64{6 * aInf, 0},
		FreestreamPT: [2]float64{100, 250},
		CFL:          0.6,
		MUSCL:        true,
	}
}

// A grid-sequenced (two-level cascade) solve must land on the same
// physics as a fine-grid-only solve: same pitot pressure, same standoff band.
func TestSolveSequencedMatchesFine(t *testing.T) {
	g, o := seqCase(t)
	fine, _, err := SolveMultilevel(context.Background(), g, o, 4000, 1e-3, SequenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fine.Close()
	seq, res, err := SolveMultilevel(context.Background(), g, o, 4000, 1e-3, SequenceOptions{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	if math.IsNaN(res) || res <= 0 {
		t.Fatalf("sequenced residual %g", res)
	}
	qf := fine.Primitive(0, 0)
	qs := seq.Primitive(0, 0)
	if math.Abs(qs.P-qf.P)/qf.P > 0.05 {
		t.Errorf("sequenced stagnation pressure %g vs fine %g", qs.P, qf.P)
	}
	xf, _ := fine.ShockLocus(2)
	xs, _ := seq.ShockLocus(2)
	if math.Abs(xs[0]-xf[0]) > 0.06 {
		t.Errorf("sequenced standoff %g vs fine %g", -xs[0], -xf[0])
	}
}

// Sequencing falls back to a single-level solve when the grid is too small
// to coarsen.
func TestSolveSequencedFallback(t *testing.T) {
	body := geometry.NewSphere(1.0)
	g, err := grid.NewBlunt(body, body.MaxS(), 4, 4, func(s float64) float64 { return 0.4 }, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	_, o := seqCase(t)
	s, res, err := SolveMultilevel(context.Background(), g, o, 200, 1e-3, SequenceOptions{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.G != g {
		t.Error("fallback should solve on the original grid")
	}
	if math.IsNaN(res) {
		t.Error("NaN residual")
	}
}
