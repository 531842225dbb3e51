package fvm

import (
	"context"
	"math"
	"sync"
	"testing"
)

// Two solvers sharing one pool must both converge, concurrently, and one
// solver's Close must not tear the shared pool down under the other.
func TestSharedPoolConcurrentSolvers(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	var wg sync.WaitGroup
	solvers := make([]*Solver, 2)
	res := make([]float64, 2)
	errs := make([]error, 2)
	for i := range solvers {
		g, o := seqCase(t)
		o.Pool = pool
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			solvers[i], res[i], errs[i] = SolveMultilevel(context.Background(), g, o, 600, 1e-2, SequenceOptions{})
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("solver %d: %v", i, errs[i])
		}
		if math.IsNaN(res[i]) || res[i] <= 0 {
			t.Fatalf("solver %d residual %g", i, res[i])
		}
	}
	// Closing one solver must leave the shared pool alive for the other.
	s1, s2 := solvers[0], solvers[1]
	s1.Close()
	if _, err := marchTo(s2, 4, 0); err != nil {
		t.Fatalf("steps after sibling Close: %v", err)
	}
	s2.Close()
	// Identical configurations through one pool should land on the same
	// physics.
	q1, q2 := s1.Primitive(0, 0), s2.Primitive(0, 0)
	if math.Abs(q1.P-q2.P)/q1.P > 0.05 {
		t.Errorf("shared-pool twins diverged: p %g vs %g", q1.P, q2.P)
	}
}

// The Progress callback must see every step exactly once, in order, with
// the phase label and step budget.
func TestRunProgressCallback(t *testing.T) {
	g, o := seqCase(t)
	var steps []int
	var phases []string
	var lastRes float64
	o.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) {
		if maxSteps != 50 {
			t.Fatalf("maxSteps %d want 50", maxSteps)
		}
		steps = append(steps, step)
		phases = append(phases, phase)
		lastRes = residual
	}
	s, _, err := SolveMultilevel(context.Background(), g, o, 50, 0, SequenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(steps) != 50 {
		t.Fatalf("got %d progress reports, want 50", len(steps))
	}
	for i, n := range steps {
		if n != i+1 {
			t.Fatalf("report %d has step %d", i, n)
		}
		if phases[i] != "solve" {
			t.Fatalf("report %d phase %q", i, phases[i])
		}
	}
	if lastRes <= 0 || math.IsNaN(lastRes) {
		t.Fatalf("final reported residual %g", lastRes)
	}
}

// A grid-sequenced solve reports its levels as "level1" (coarse) then
// "level0" (fine), never interleaved.
func TestSequencedProgressPhases(t *testing.T) {
	g, o := seqCase(t)
	var phases []string
	o.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) {
		phases = append(phases, phase)
	}
	s, _, err := SolveMultilevel(context.Background(), g, o, 2000, 1e-2, SequenceOptions{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sawFine := false
	for _, ph := range phases {
		switch ph {
		case "level1":
			if sawFine {
				t.Fatal("coarse level1 phase after the fine level0 began")
			}
		case "level0":
			sawFine = true
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
	}
	if !sawFine || phases[0] != "level1" {
		t.Fatalf("phases %v: want level1 then level0", phases)
	}
}
