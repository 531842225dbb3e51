package cataero

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

// A fast ideal-gas NS case: no EOS table to build, converges in well under
// a second.
func fastNSProblem() Problem {
	return Problem{
		Class:     NS,
		Chemistry: IdealGas,
		PInf:      5474.9, TInf: 216.65,
		VInf:       6 * math.Sqrt(1.4*287.05*216.65),
		NoseRadius: 0.3, TWall: 600,
		NI: 8, NJ: 14, MaxSteps: 120,
	}
}

// A long-running ideal-gas NS case for cancellation and queueing tests:
// explicit stepping on a 48x64 grid takes thousands of steps to converge,
// which holds a worker slot for seconds, and the step budget is far beyond
// that, so a test cancels the run long before it can end on its own.
func longNSProblem() Problem {
	p := fastNSProblem()
	p.NI, p.NJ = 48, 64
	p.MaxSteps = 5_000_000
	return p
}

// waitState polls until the run reaches the state or the deadline passes.
func waitState(t *testing.T, snap func() Snapshot, want RunState) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s := snap(); s.State == want {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("run never reached state %v", want)
	return Snapshot{}
}

// The acceptance path: a submitted NS run exposes live snapshots with
// monotonically increasing step counts and finishes with a residual.
func TestSubmitLiveSnapshots(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solve in short mode")
	}
	s := NewSession()
	run := s.Submit(context.Background(), fastNSProblem())

	var seen []Snapshot
	for snap := range run.Watch() {
		seen = append(seen, snap)
	}
	env, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if env == nil || env.QConvStag <= 0 {
		t.Fatal("no environment from the run")
	}
	if len(seen) < 2 {
		t.Fatalf("only %d snapshots observed", len(seen))
	}
	// The watcher has latest-value semantics, so on a fast solve the
	// intermediate stepping snapshots may all be replaced before this
	// goroutine drains them — but every solver-stamped snapshot (including
	// the terminal one, which always arrives) carries the live step count.
	lastStep := 0
	for _, snap := range seen {
		if snap.Solver != "" {
			if snap.Solver != "ns" || snap.Phase != "solve" {
				t.Fatalf("unexpected solver/phase %q/%q", snap.Solver, snap.Phase)
			}
			if snap.Step < lastStep {
				t.Fatalf("step count went backwards: %d after %d", snap.Step, lastStep)
			}
			lastStep = snap.Step
		}
	}
	if lastStep == 0 {
		t.Fatal("no stepping snapshots observed")
	}
	final := seen[len(seen)-1]
	if final.State != RunDone || final.Err != nil {
		t.Fatalf("terminal snapshot %+v", final)
	}
	if final.Residual <= 0 || math.IsNaN(final.Residual) {
		t.Fatalf("no final residual in terminal snapshot: %g", final.Residual)
	}
	if final.Elapsed <= 0 {
		t.Fatal("no elapsed time in terminal snapshot")
	}
	// The handle agrees with the watch stream after completion.
	if snap := run.Snapshot(); snap.State != RunDone || snap.Residual != final.Residual {
		t.Fatalf("Snapshot() after completion: %+v", snap)
	}
	// Watch on a finished run yields exactly the terminal snapshot.
	var tail []Snapshot
	for snap := range run.Watch() {
		tail = append(tail, snap)
	}
	if len(tail) != 1 || tail[0].State != RunDone {
		t.Fatalf("late Watch saw %+v", tail)
	}
}

// Run snapshots retain a bounded residual history that services can plot
// without installing a Monitor: chronological, capped at HistoryDepth, and
// present in the terminal snapshot.
func TestSnapshotResidualHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solve in short mode")
	}
	s := NewSession()
	run := s.Submit(context.Background(), fastNSProblem())
	if _, err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	hist := run.Snapshot().History()
	if len(hist) == 0 {
		t.Fatal("no residual history retained")
	}
	if len(hist) > HistoryDepth {
		t.Fatalf("history length %d exceeds cap %d", len(hist), HistoryDepth)
	}
	// fastNSProblem runs 120 steps, so the ring must have wrapped and kept
	// the most recent window, in chronological order.
	if len(hist) != HistoryDepth {
		t.Fatalf("expected a full ring after 120 steps, got %d", len(hist))
	}
	for k := 1; k < len(hist); k++ {
		if hist[k].Step <= hist[k-1].Step {
			t.Fatalf("history out of order at %d: step %d after %d", k, hist[k].Step, hist[k-1].Step)
		}
		if hist[k].Residual <= 0 {
			t.Fatalf("non-positive residual retained at %d", k)
		}
	}
	if last := hist[len(hist)-1]; last.Step != 120 {
		t.Errorf("history should end at the final step: got %d", last.Step)
	}
}

// A grid-sequenced run restarts its step counter at the level1→level0
// (coarse→fine) phase switch; the history window must restart with it so
// steps stay monotone and the trend stays comparable.
func TestSnapshotHistoryAcrossPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solve in short mode")
	}
	s := NewSession()
	p := fastNSProblem()
	p.GridSequencing = ToggleOn
	phases := map[string]bool{}
	p.Monitor = MonitorFunc(func(pr Progress) { phases[pr.Phase] = true })
	run := s.Submit(context.Background(), p)
	if _, err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if !phases["level1"] || !phases["level0"] {
		t.Fatalf("sequenced solve did not report both level phases: %v", phases)
	}
	hist := run.Snapshot().History()
	if len(hist) == 0 {
		t.Fatal("no residual history retained")
	}
	for k := 1; k < len(hist); k++ {
		if hist[k].Step <= hist[k-1].Step {
			t.Fatalf("history folded back at %d: step %d after %d (phase switch did not restart the window)",
				k, hist[k].Step, hist[k-1].Step)
		}
	}
}

// The problem's own Monitor still sees progress alongside the run handle.
func TestSubmitForwardsToProblemMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solve in short mode")
	}
	s := NewSession()
	hits := make(chan Progress, 1024)
	p := fastNSProblem()
	p.Monitor = MonitorFunc(func(pr Progress) {
		select {
		case hits <- pr:
		default:
		}
	})
	if _, err := s.Submit(context.Background(), p).Wait(); err != nil {
		t.Fatal(err)
	}
	close(hits)
	n := 0
	for pr := range hits {
		if pr.Solver != "ns" {
			t.Fatalf("unexpected solver %q", pr.Solver)
		}
		n++
	}
	if n == 0 {
		t.Fatal("problem monitor never called")
	}
}

// Run.Cancel aborts a running solve promptly and releases the slot for the
// next solve.
func TestRunCancelPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solve in short mode")
	}
	s := NewSession(WithWorkers(1))
	run := s.Submit(context.Background(), longNSProblem())
	waitState(t, run.Snapshot, RunRunning)
	start := time.Now()
	run.Cancel()
	env, err := run.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if env != nil {
		t.Fatal("canceled run returned an environment")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Wait took %v after Cancel", elapsed)
	}
	// The slot freed: a follow-up solve on the same 1-wide session runs.
	if _, err := s.Solve(context.Background(), fastNSProblem()); err != nil {
		t.Fatalf("solve after canceled run: %v", err)
	}
}

// Canceling mid-batch: finished runs keep their results, the running and
// queued runs carry ctx.Err(), and Wait returns promptly.
func TestBatchCancellationSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solves in short mode")
	}
	s := NewSession(WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// First: a fast run, completed before anything else is submitted so the
	// 1-wide session leaves it untouched by the cancellation.
	r0 := s.Submit(ctx, fastNSProblem())
	env0, err0 := r0.Wait()
	if err0 != nil || env0 == nil {
		t.Fatalf("fast run failed: %v", err0)
	}

	// Then a long run (occupies the slot) and a queued one behind it.
	r1 := s.Submit(ctx, longNSProblem())
	waitState(t, r1.Snapshot, RunRunning)
	r2 := s.Submit(ctx, longNSProblem())
	if st := r2.Snapshot().State; st != RunQueued {
		t.Fatalf("second run state %v, want queued", st)
	}

	start := time.Now()
	cancel()
	if _, err := r1.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("running run err = %v, want context.Canceled", err)
	}
	if _, err := r2.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued run err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation drained in %v", elapsed)
	}
	// The finished run keeps its result.
	if env, err := r0.Wait(); err != nil || env == nil || env.QConvStag != env0.QConvStag {
		t.Fatalf("finished run lost its result: %v %v", env, err)
	}
	if snap := r2.Snapshot(); snap.State != RunDone || !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("queued run terminal snapshot %+v", snap)
	}
}

// The shared session pool keeps total goroutines bounded under a wide
// NS batch: one resident fvm worker pool serves every solve instead of a
// private NumCPU-wide pool per solver.
func TestSharedPoolBoundsGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("NS batch in short mode")
	}
	const n = 12
	workers := 4
	base := runtime.NumGoroutine()
	s := NewSession(WithWorkers(workers))
	probs := make([]Problem, n)
	for i := range probs {
		p := fastNSProblem()
		p.NI, p.NJ = 10, 16
		p.MaxSteps = 1500
		probs[i] = p
	}
	done := make(chan struct{})
	var results []Result
	var batchErr error
	go func() {
		defer close(done)
		results, batchErr = s.SolveBatch(context.Background(), probs)
	}()
	peak := 0
	for {
		select {
		case <-done:
		default:
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
			time.Sleep(2 * time.Millisecond)
			continue
		}
		break
	}
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("problem %d: %v", i, r.Err)
		}
	}
	// Budget: one goroutine per submitted run (n), the shared fvm pool
	// (GOMAXPROCS-1), the batch driver and slack. The old per-solver pools
	// would add ~workers*(NumCPU-1) on top.
	budget := base + n + runtime.GOMAXPROCS(0) + 8
	if peak > budget {
		t.Fatalf("peak goroutines %d exceeds budget %d (base %d)", peak, budget, base)
	}
}

// A case file round-trips: the loaded problem produces the same
// environment as the in-code problem it was written from.
func TestCaseFileRoundTripSameEnvironment(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solves in short mode")
	}
	p := fastNSProblem()
	path := t.TempDir() + "/case.json"
	if err := SaveCase(path, p); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCase(path)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	ctx := context.Background()
	envA, err := s.Solve(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	envB, err := s.Solve(ctx, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if envA.QConvStag != envB.QConvStag || envA.Standoff != envB.Standoff {
		t.Fatalf("environments differ: q %g vs %g, standoff %g vs %g",
			envA.QConvStag, envB.QConvStag, envA.Standoff, envB.Standoff)
	}
	if len(envA.Surface) != len(envB.Surface) {
		t.Fatalf("surface stations differ: %d vs %d", len(envA.Surface), len(envB.Surface))
	}
	for i := range envA.Surface {
		if envA.Surface[i] != envB.Surface[i] {
			t.Fatalf("surface station %d differs", i)
		}
	}
}

func TestLoadCaseErrors(t *testing.T) {
	if _, err := LoadCase("testdata/definitely-missing.json"); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := ParseCase([]byte(`{"class":"nope"}`)); err == nil {
		t.Error("unknown class accepted")
	}
}

// A problem can force grid sequencing off on a session that enables it by
// default — the tri-state toggle satellite.
func TestGridSequencingOptOut(t *testing.T) {
	s := NewSession(WithGridSequencing(true))
	// Unset defers to the session: sequencing on.
	if got := s.apply(Problem{}).GridSequencing; got != ToggleOn {
		t.Fatalf("unset toggle resolved to %v, want on", got)
	}
	// An explicit off survives the session default.
	if got := s.apply(Problem{GridSequencing: ToggleOff}).GridSequencing; got != ToggleOff {
		t.Fatalf("explicit off overridden: %v", got)
	}
	// And an explicit on on a plain session stays on.
	if got := NewSession().apply(Problem{GridSequencing: ToggleOn}).GridSequencing; got != ToggleOn {
		t.Fatalf("explicit on lost: %v", got)
	}
}

// Behavioral check via monitor phases: ToggleOff on a sequencing session
// must solve in a single "solve" phase; the session default must sequence
// through "level1" (coarse) then "level0" (fine).
func TestGridSequencingOptOutPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solves in short mode")
	}
	// Watch drops intermediate snapshots (latest-value semantics), so use a
	// problem Monitor, which sees every report.
	phasesOf := func(p Problem) map[string]bool {
		s := NewSession(WithGridSequencing(true))
		seen := map[string]bool{}
		p.Monitor = MonitorFunc(func(pr Progress) { seen[pr.Phase] = true })
		if _, err := s.Submit(context.Background(), p).Wait(); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	seq := phasesOf(fastNSProblem())
	if !seq["level1"] || !seq["level0"] || seq["solve"] {
		t.Fatalf("sequenced phases %v, want level1+level0", seq)
	}
	p := fastNSProblem()
	p.GridSequencing = ToggleOff
	plain := phasesOf(p)
	if plain["level1"] || plain["level0"] || !plain["solve"] {
		t.Fatalf("opt-out phases %v, want solve only", plain)
	}
}

// A zero-value Session still solves (the pre-Run API allowed it): the
// admission width is adopted lazily and the nil stack falls back to the
// core default.
func TestZeroValueSessionSolves(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solve in short mode")
	}
	var s Session
	env, err := s.Solve(context.Background(), fastNSProblem())
	if err != nil {
		t.Fatal(err)
	}
	if env.QConvStag <= 0 {
		t.Fatal("no heating from zero-value session")
	}
}

func TestFluxKernelsExported(t *testing.T) {
	ks := FluxKernels()
	if len(ks) < 3 {
		t.Fatalf("kernels %v", ks)
	}
	want := map[string]bool{"hlle": true, "hllc": true, "ausm+": true}
	for _, k := range ks {
		delete(want, k)
	}
	if len(want) != 0 {
		t.Fatalf("missing kernels %v in %v", want, ks)
	}
}

// SubmitShock exposes the same run semantics for bow-shock solves.
func TestSubmitShock(t *testing.T) {
	if testing.Short() {
		t.Skip("Euler solve in short mode")
	}
	s := NewSession()
	p := Problem{
		Chemistry: IdealGas,
		PInf:      10.9, TInf: 233, VInf: 6700,
		NoseRadius: 1.0, NI: 10, NJ: 16, MaxSteps: 600,
	}
	run := s.SubmitShock(context.Background(), p)
	env, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(env.X) == 0 || env.Standoff <= 0 {
		t.Fatalf("empty envelope: %+v", env)
	}
	snap := run.Snapshot()
	if snap.State != RunDone || snap.Solver != "euler" || snap.Step == 0 {
		t.Fatalf("terminal shock snapshot %+v", snap)
	}
}
