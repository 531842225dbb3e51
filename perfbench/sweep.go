package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// wallJitter is the relative wall-temperature jitter of a sweep op. It makes
// every op a fresh case while leaving step counts and EOS-table keys (which
// depend on the freestream only) unchanged.
const wallJitter = 0.01

// How many times a run sets its workload up; setup_s is their median. A
// serve set-up (48 solves through the service, two at a time) spreads more
// from one to the next than a sweep's warm-up pass, so serve sets up more
// often.
const (
	sweepSetups = 3
	serveSetups = 5
)

// sweepSpec is one sweep workload.
type sweepSpec struct {
	name  string
	kinds []caseKind
	// pass lists the ops of one pass as indices into kinds; a kind listed
	// twice runs twice per pass.
	pass []int
	// passSeconds is the nominal time of one pass on a 2-core x86 machine;
	// it turns --seconds into a fixed pass count, so every run with the
	// same --seconds does identical work.
	passSeconds float64
}

// real-gas runs each equilibrium NS kind twice per pass, so that the NS
// kinds carry about half of its time.
var sweeps = map[string]sweepSpec{
	"ns-ideal": {name: "ns-ideal", kinds: idealKinds, pass: []int{0, 1, 2, 3, 4, 5}, passSeconds: 2.0},
	"real-gas": {name: "real-gas", kinds: realGasKinds, pass: []int{0, 0, 1, 1, 2, 2, 3, 4, 5, 6}, passSeconds: 2.3},
}

// plannedOp is one op of a sweep plan.
type plannedOp struct {
	pass  int
	kind  int // index into the workload's kinds
	twall float64
}

// newRand is the benchmark's seeded generator; stream separates the
// independent draws (sweep plan, serve traffic, fresh cases) of one seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// planSweep returns the measured op sequence a seed gives: passes running
// the spec's pass ops in a seeded order, each op's wall temperature
// jittered by up to ±wallJitter.
func planSweep(spec sweepSpec, seed uint64, passes int) []plannedOp {
	rng := newRand(seed, 1)
	var plan []plannedOp
	for pass := 0; pass < passes; pass++ {
		for _, pi := range rng.Perm(len(spec.pass)) {
			ki := spec.pass[pi]
			tw := spec.kinds[ki].twall * (1 + wallJitter*(2*rng.Float64()-1))
			plan = append(plan, plannedOp{pass: pass, kind: ki, twall: tw})
		}
	}
	return plan
}

// passCount turns a measuring time into a pass count for a workload.
func passCount(seconds, passSeconds float64) int {
	return max(1, int(math.Round(seconds/passSeconds)))
}

// sweepRun is what one sweep run measured.
type sweepRun struct {
	setupS  []float64 // each setup's seconds
	ops     tally
	lat     samples // per-kind op latency, ms (untraced passes)
	gapMS   []float64
	elapsed [2]time.Duration // untraced, traced measuring time
	passS   []float64        // each untraced pass's seconds
	opsDone [2]int           // untraced, traced ops completed
	traced  []opRecord       // ops of traced passes
	r       *runner          // the measured setup
	kinds   []caseKind       // the workload's rotation
}

// setupSweep builds a fresh session and runs one untimed warm-up pass (every
// kind once at its nominal wall temperature), which fills the model stacks,
// EOS tables and worker pool. Warm-up failures count as failed ops.
func setupSweep(ctx context.Context, spec sweepSpec, out *sweepRun) (*runner, error) {
	r, err := newRunner()
	if err != nil {
		return nil, err
	}
	for i := range spec.kinds {
		k := &spec.kinds[i]
		out.ops.add(r.run(ctx, k, k.twall, nil).err)
	}
	return r, nil
}

// runSweep sets the workload up sweepSetups times, then runs the seeded plan
// closed-loop with one op in flight. With trace set, passes alternate
// untraced and traced, so trace overhead is measured inside one process.
func runSweep(ctx context.Context, spec sweepSpec, seed uint64, seconds float64, trace *tracer) (*sweepRun, error) {
	out := &sweepRun{lat: samples{}, kinds: spec.kinds}
	var r *runner
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		var err error
		if r, err = setupSweep(ctx, spec, out); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	out.r = r
	n := len(spec.pass)
	passes := passCount(seconds, spec.passSeconds)
	plan := planSweep(spec, seed, passes)
	// A machine far slower than the nominal one stops early rather than
	// overrun the run's time budget.
	limit := time.Duration(3 * seconds * float64(time.Second))
	start := time.Now()
	var prevEnd time.Time
	for pass := 0; pass < passes && time.Since(start) < limit; pass++ {
		slot := 0
		var tr *tracer
		if trace != nil && pass%2 == 1 {
			slot, tr = 1, trace
		}
		t0 := time.Now()
		for _, po := range plan[pass*n : (pass+1)*n] {
			k := &spec.kinds[po.kind]
			rec := r.run(ctx, k, po.twall, tr)
			if !prevEnd.IsZero() {
				out.gapMS = append(out.gapMS, ms(rec.start.Sub(prevEnd)))
			}
			prevEnd = rec.start.Add(rec.lat)
			out.ops.add(rec.err)
			out.opsDone[slot]++
			if tr != nil {
				out.traced = append(out.traced, rec)
			} else {
				out.lat.add(k.name, ms(rec.lat))
			}
		}
		d := time.Since(t0)
		out.elapsed[slot] += d
		if tr == nil {
			out.passS = append(out.passS, d.Seconds())
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sweep %s: %w", spec.name, err)
	}
	return out, nil
}
