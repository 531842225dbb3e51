package fvm

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
	"weak"
)

func TestWorkerPoolSweep(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		p := NewPool(workers)
		var task sweepTask
		for _, n := range []int{0, 1, 2, 5, 17, 100} {
			// Per-chunk partial sums through sweep, the hot-loop reduction
			// pattern: every chunk writes its ci slot, chunks tile [0, n).
			partial := make([]float64, p.chunkCount(n))
			p.sweep(n, &task, func(ci, lo, hi int) {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += float64(i)
				}
				partial[ci] = s
			})
			got := 0.0
			for _, s := range partial {
				got += s
			}
			want := float64(n*(n-1)) / 2
			if got != want {
				t.Errorf("workers=%d n=%d: sum %g want %g", workers, n, got, want)
			}
			// Every index is visited exactly once across the chunks.
			hits := make([]int, n)
			p.sweep(n, &task, func(ci, lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

// A sweep never waits on a chunk no running worker has claimed: while the
// one worker of a two-worker pool is held inside a chunk of sweep A, a sweep
// B from another goroutine runs every chunk itself and returns.
func TestPoolHelpFirst(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	entered, release, aDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	go func() {
		defer close(aDone)
		var a sweepTask
		p.sweep(2, &a, func(ci, lo, hi int) {
			entered <- struct{}{}
			<-release
		})
	}()
	// The goroutine sweeping A can be inside only one chunk at a time, so
	// both chunks entered means the worker holds the other.
	for range 2 {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("sweep A's chunks never both started")
		}
	}
	hits := make([]int, 100)
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		var b sweepTask
		p.sweep(len(hits), &b, func(ci, lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
	}()
	select {
	case <-bDone:
	case <-time.After(10 * time.Second):
		t.Fatal("sweep B waited on the worker held by sweep A")
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("sweep B ran index %d %d times", i, h)
		}
	}
	releaseOnce.Do(func() { close(release) })
	<-aDone
}

// A worker keeps no reference to a finished sweep or to its Pool: a solver
// stepped on a shared pool is collected once dropped, and an abandoned pool,
// never closed, is finalized and its worker goroutine exits.
func TestPoolReleasesSolvers(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	g, o, err := ReferenceViscousCase(8, 12, "")
	if err != nil {
		t.Fatal(err)
	}
	o.Pool = pool
	s, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		s.Step()
	}
	// Two chunks that each wait for the other finish only on two goroutines,
	// so the worker has run a chunk of the solver's own descriptor.
	var both sync.WaitGroup
	both.Add(2)
	pool.sweep(2, &s.sweepTask, func(ci, lo, hi int) {
		both.Done()
		both.Wait()
	})
	ws := weak.Make(s)
	s.Close()
	s = nil
	if !eventually(func() bool { runtime.GC(); return ws.Value() == nil }) {
		t.Fatal("a solver dropped after stepping on a shared pool is still reachable")
	}

	before := poolWorkers()
	p := NewPool(2)
	var task sweepTask
	p.sweep(4, &task, func(ci, lo, hi int) {})
	var id string
	for w := range poolWorkers() {
		if !before[w] {
			id = w
		}
	}
	if id == "" {
		t.Fatal("NewPool(2) started no worker goroutine")
	}
	p = nil
	if !eventually(func() bool { runtime.GC(); return !poolWorkers()[id] }) {
		t.Fatalf("worker goroutine %s of an abandoned pool is still running", id)
	}
}

// eventually polls cond for up to five seconds.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return false
}

// poolWorkers returns the IDs of the live goroutines NewPool started. (A
// worker that has not run yet shows only a wrapper frame, so goroutines are
// matched by their creator.)
func poolWorkers() map[string]bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	ids := map[string]bool{}
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if f := bytes.Fields(g); len(f) > 1 && bytes.Contains(g, []byte("created by cataero/internal/fvm.NewPool ")) {
			if _, err := strconv.Atoi(string(f[1])); err == nil {
				ids[string(f[1])] = true
			}
		}
	}
	return ids
}

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
