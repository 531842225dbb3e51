package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"cataero"
)

// opRecord is one executed op as the harness saw it.
type opRecord struct {
	kind  *caseKind
	start time.Time
	lat   time.Duration
	// err is the program's error or the failed output check.
	err error
	// watch carries the Monitor observations of a traced op.
	watch *opWatch
}

// runCounts are the exact counters of one finite-volume run: the steps of
// its (last) phase, its divergence fallbacks and its shock refits.
type runCounts struct{ steps, fallbacks, refits int }

// phaseMark is one schedule phase of a run as its Monitor reported it.
type phaseMark struct {
	name       string
	start, end time.Time
	steps      int // last reported step count of the phase
	fallbacks  int // last reported fallback count of the phase's solver
}

// opWatch observes one run through Problem.Monitor: when the first and last
// reports came, and each phase's extent, steps and divergence counters. It
// runs on the solving goroutine and is read only after Wait returns.
type opWatch struct {
	submitted, running time.Time // Submit, and Run.Watch showing it running
	first, last        time.Time // first and last Monitor report
	phases             []phaseMark
	refits             int
}

func (o *opWatch) OnProgress(p cataero.Progress) {
	now := time.Now()
	if o.first.IsZero() {
		o.first = now
	}
	n := len(o.phases)
	if n == 0 || o.phases[n-1].name != p.Phase {
		start := o.last
		if n == 0 {
			start = now
		}
		o.phases = append(o.phases, phaseMark{name: p.Phase, start: start})
		n++
	}
	ph := &o.phases[n-1]
	ph.end, ph.steps, ph.fallbacks = now, p.Step, p.Fallbacks
	o.refits = max(o.refits, p.Refits)
	o.last = now
}

// runner executes ops against one set-up session.
type runner struct {
	sess *cataero.Session
	tube *tubeSetup
}

func newRunner() (*runner, error) {
	tube, err := newTubeSetup()
	if err != nil {
		return nil, err
	}
	return &runner{sess: cataero.NewSession(), tube: tube}, nil
}

// run executes one op of kind k at wall temperature tw and checks its
// outputs. With a tracer it records the op's spans: the Run lifecycle seen
// through Run.Watch (queued → running) and the Monitor (first report,
// phases, last report), then Wait.
func (r *runner) run(ctx context.Context, k *caseKind, tw float64, tr *tracer) opRecord {
	rec := opRecord{kind: k, start: time.Now()}
	if tr != nil {
		defer func() {
			op := tr.op()
			root := tr.add(k.name, rec.start, rec.start.Add(rec.lat), -1, op)
			traceRun(tr, rec, root, op)
		}()
	}
	if k.mode == modeTube {
		out, err := r.tube.solve(ctx)
		rec.lat = time.Since(rec.start)
		rec.err = err
		if err == nil {
			rec.err = checkOutputs(k, out, nil)
		}
		return rec
	}
	p := k.problem(tw)
	var w *opWatch
	if tr != nil {
		w = &opWatch{}
		p.Monitor = w
	}
	var (
		h        *watched
		snap     cataero.Snapshot
		err      error
		out      [2]float64
		submitAt = time.Now()
	)
	switch k.mode {
	case modeShock:
		run := r.sess.SubmitShock(ctx, p)
		h = watch(tr, run)
		var env *cataero.ShockEnvelope
		env, err = run.Wait()
		snap = run.Snapshot()
		if err == nil {
			out = [2]float64{env.Standoff, env.Y[len(env.Y)-1]}
		}
	default:
		run := r.sess.Submit(ctx, p)
		h = watch(tr, run)
		var env *cataero.Environment
		env, err = run.Wait()
		snap = run.Snapshot()
		if err == nil {
			out = envOutputs(k, env)
		}
	}
	rec.lat = time.Since(rec.start)
	if h != nil {
		<-h.done
		w.submitted, w.running = submitAt, h.running
	}
	rec.watch = w
	if err != nil {
		rec.err = err
		return rec
	}
	rec.err = checkOutputs(k, out, &snap)
	return rec
}

// watched timestamps the run's queued → running transition from Run.Watch.
type watched struct {
	running time.Time
	done    chan struct{}
}

// watch follows a run's Run.Watch channel until it closes. Untraced runs
// are not watched (nil), so they pay no per-step watcher notification.
func watch(tr *tracer, run interface {
	Watch() <-chan cataero.Snapshot
}) *watched {
	if tr == nil {
		return nil
	}
	ch := run.Watch()
	h := &watched{done: make(chan struct{})}
	go func() {
		defer close(h.done)
		for s := range ch {
			if h.running.IsZero() && s.State != cataero.RunQueued {
				h.running = time.Now()
			}
		}
	}()
	return h
}

// traceRun turns a finished op's observations into child spans of root:
// session.queue (Submit → running), then for a finite-volume run
// session.prepare (running → first Monitor report), one span per phase and
// session.finish (last report → Wait returned). A marching class does its
// own set-up before its first report and its last computation after its
// last, so its first phase starts when the run starts and its last ends
// when Wait returns. A shock-tube op has one child, shocktube.solve.
func traceRun(tr *tracer, rec opRecord, root, op int) {
	end := rec.start.Add(rec.lat)
	if rec.watch == nil {
		tr.add("shocktube.solve", rec.start, end, root, op)
		return
	}
	w := rec.watch
	// Run.Watch is read on its own goroutine, so it can see the run start
	// after the first Monitor report; the report bounds the queue then.
	running := w.running
	if running.IsZero() || (!w.first.IsZero() && running.After(w.first)) {
		running = w.first
	}
	if running.IsZero() {
		running = end
	}
	tr.add("session.queue", w.submitted, running, root, op)
	if len(w.phases) == 0 {
		return
	}
	if !rec.kind.finiteVolume() {
		w.phases[0].start = running
		w.phases[len(w.phases)-1].end = end
	} else {
		tr.add("session.prepare", running, w.first, root, op)
		tr.add("session.finish", w.last, end, root, op)
	}
	for _, ph := range w.phases {
		tr.add("phase."+ph.name, ph.start, ph.end, root, op)
	}
}

// envOutputs extracts a Session solve's two checked outputs.
func envOutputs(k *caseKind, env *cataero.Environment) [2]float64 {
	var out [2]float64
	for i, o := range k.out {
		switch o.label {
		case qStag:
			out[i] = env.QConvStag
		case standoff:
			out[i] = env.Standoff
		case qEnd:
			if n := len(env.Surface); n > 0 {
				out[i] = env.Surface[n-1].Q
			}
		}
	}
	return out
}

var errStepCap = errors.New("stopped at its step cap before converging")

// checkOutputs is an op's output check: a finite-volume run must converge
// before its step cap, and both outputs must be finite and within refBand of
// their references. snap is nil for classes without a Run.
func checkOutputs(k *caseKind, out [2]float64, snap *cataero.Snapshot) error {
	if snap != nil && k.finiteVolume() && snap.MaxSteps > 0 && snap.Step >= snap.MaxSteps {
		return fmt.Errorf("%s: %w (%s step %d of %d)", k.name, errStepCap, snap.Phase, snap.Step, snap.MaxSteps)
	}
	for i, o := range k.out {
		if math.IsNaN(out[i]) || math.IsInf(out[i], 0) {
			return fmt.Errorf("%s: %s is not finite", k.name, o.label)
		}
		if math.Abs(out[i]/o.ref-1) > refBand {
			return fmt.Errorf("%s: %s = %.6g, outside %.0f%% of the reference %.6g",
				k.name, o.label, out[i], 100*refBand, o.ref)
		}
	}
	return nil
}
