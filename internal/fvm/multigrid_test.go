package fvm

import (
	"context"
	"math"
	"strings"
	"testing"
)

// A multilevel cascade must land on the same physics as a fine-grid-only
// solve, at every depth.
func TestSolveMultilevelMatchesFine(t *testing.T) {
	g, o := seqCase(t)
	fine, _, err := SolveMultilevel(context.Background(), g, o, 4000, 1e-3, SequenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fine.Close()
	qf := fine.Primitive(0, 0)
	xf, _ := fine.ShockLocus(2)
	for _, sq := range []SequenceOptions{{Levels: 3}, {Levels: 2}} {
		ml, res, err := SolveMultilevel(context.Background(), g, o, 4000, 1e-3, sq)
		if err != nil {
			t.Fatalf("levels=%d: %v", sq.Levels, err)
		}
		if math.IsNaN(res) || res <= 0 {
			t.Fatalf("levels=%d: residual %g", sq.Levels, res)
		}
		qs := ml.Primitive(0, 0)
		if math.Abs(qs.P-qf.P)/qf.P > 0.05 {
			t.Errorf("levels=%d: stagnation pressure %g vs fine %g", sq.Levels, qs.P, qf.P)
		}
		xs, _ := ml.ShockLocus(2)
		if math.Abs(xs[0]-xf[0]) > 0.06 {
			t.Errorf("levels=%d: standoff %g vs fine %g", sq.Levels, -xs[0], -xf[0])
		}
		ml.Close()
	}
}

// The multilevel driver reports per-level phases level0 (finest) .. levelN,
// and unreachable levels are dropped instead of failing the solve: a 16x24
// grid halves to 8x12 and 4x6 but no further, so Levels=5 runs 3 levels.
func TestSolveMultilevelPhasesAndAutoDrop(t *testing.T) {
	g, o := seqCase(t)
	phases := map[string]bool{}
	o.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) { phases[phase] = true }
	s, _, err := SolveMultilevel(context.Background(), g, o, 4000, 1e-3, SequenceOptions{Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, want := range []string{"level0", "level1", "level2"} {
		if !phases[want] {
			t.Errorf("phase %q never reported (got %v)", want, phases)
		}
	}
	if phases["level3"] || phases["level4"] {
		t.Errorf("unreachable level phases reported: %v", phases)
	}
}

// Two levels run the two-level cascade (phases level0 and level1 only), and
// a deeper Levels adds the coarser level phases.
func TestSolveSequencedDispatch(t *testing.T) {
	g, o := seqCase(t)
	phases := map[string]bool{}
	o.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) { phases[phase] = true }
	s, _, err := SolveMultilevel(context.Background(), g, o, 4000, 1e-3, SequenceOptions{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(phases) != 2 || !phases["level0"] || !phases["level1"] {
		t.Errorf("two-level phases %v, want level0+level1 only", phases)
	}
	phases = map[string]bool{}
	s, _, err = SolveMultilevel(context.Background(), g, o, 4000, 1e-3, SequenceOptions{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(phases) != 3 || !phases["level0"] || !phases["level2"] {
		t.Errorf("multilevel phases %v, want level0..level2", phases)
	}
}

// Negative knobs fail fast with descriptive errors.
func TestSolveMultilevelValidation(t *testing.T) {
	g, o := seqCase(t)
	if _, _, err := SolveMultilevel(context.Background(), g, o, 100, 1e-3,
		SequenceOptions{Levels: -1}); err == nil || !strings.Contains(err.Error(), "Levels") {
		t.Errorf("negative Levels error %v", err)
	}
	if _, _, err := SolveMultilevel(context.Background(), g, o, 100, 1e-3,
		SequenceOptions{RefitEvery: -5}); err == nil || !strings.Contains(err.Error(), "RefitEvery") {
		t.Errorf("negative RefitEvery error %v", err)
	}
}

// Mid-march refit transfer: a march that re-fits the grid onto the shock
// locus and transfers the solution must land on the same wall pressures a
// freestream-started solve on the final (refitted) grid reaches — within 1%
// on the M6 hemisphere case. A single-worker pool keeps the comparison
// deterministic.
func TestRefitTransferWallPressure(t *testing.T) {
	g, o := seqCase(t)
	pool := NewPool(1)
	defer pool.Close()
	o.Pool = pool
	o.TimeStepping = "implicit"
	ml, _, err := SolveMultilevel(context.Background(), g, o, 4000, 3e-4,
		SequenceOptions{Levels: 2, RefitEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	if ml.G == g {
		t.Fatal("mid-march refit never replaced the grid")
	}
	if d, d0 := ml.G.WallDistance(0), g.WallDistance(0); d >= d0 {
		t.Errorf("refit outer boundary %g not inside original %g", d, d0)
	}
	// From-scratch reference on the refit-final grid.
	ref, _, err := SolveMultilevel(context.Background(), ml.G, o, 4000, 3e-4, SequenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < ml.ni; i++ {
		a := ref.Primitive(i, 0).P
		b := ml.Primitive(i, 0).P
		if d := math.Abs(b-a) / a; d > 0.01 {
			t.Errorf("wall pressure station %d: refit-transfer %g vs from-scratch %g (%.2f%%)", i, b, a, 100*d)
		}
	}
}

// RefitTo transfers an already-converged field onto a re-fitted grid without
// disturbing the wall row: the clustered wall cells are far inside the old
// profile span, so the interpolated transfer reproduces them nearly exactly.
func TestRefitToTransfersWallRow(t *testing.T) {
	g, o := seqCase(t)
	s, _, err := SolveMultilevel(context.Background(), g, o, 4000, 1e-3, SequenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wall := s.WallPressure()
	ng, err := refitToShock(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RefitTo(ng); err != nil {
		t.Fatal(err)
	}
	if s.G != ng {
		t.Fatal("RefitTo did not swap the grid")
	}
	for i, p0 := range wall {
		if p := s.Primitive(i, 0).P; math.Abs(p-p0)/p0 > 0.02 {
			t.Errorf("wall pressure station %d moved %g -> %g across the transfer", i, p0, p)
		}
	}
	// Mismatched cell counts are rejected.
	cg, err := s.G.Coarsen(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RefitTo(cg); err == nil {
		t.Error("RefitTo accepted a grid with different cell counts")
	}
}
