package cataero

import (
	"encoding/json"
	"sync"
	"time"

	"cataero/internal/core"
)

// RunState is the lifecycle state of a submitted run.
type RunState int

const (
	// RunQueued: submitted, waiting for a session solve slot.
	RunQueued RunState = iota
	// RunRunning: a slot is held and the solver is iterating.
	RunRunning
	// RunDone: finished — successfully, with an error, or canceled.
	RunDone
)

func (s RunState) String() string {
	switch s {
	case RunQueued:
		return "queued"
	case RunRunning:
		return "running"
	case RunDone:
		return "done"
	}
	return "unknown"
}

// HistoryPoint is one retained (step, residual) sample of a run's
// convergence history. The JSON tags are the wire form used by Snapshot
// marshaling, the serve API's progress stream and ledger metadata.
type HistoryPoint struct {
	Step     int     `json:"step"`
	Residual float64 `json:"residual"`
}

// HistoryDepth is how many (step, residual) samples a run retains in its
// snapshot ring buffer — enough to read a convergence trend without a
// Monitor streaming every iteration.
const HistoryDepth = 64

// Snapshot is one consistent observation of a run's progress: the solver
// class and registry name, the schedule phase (e.g. the "level1" (coarse)
// vs "level0" (fine) grid-sequencing level), the step count and latest
// residual, and the elapsed wall-clock time of the solve. Snapshots are
// values — reading one never blocks the solve.
type Snapshot struct {
	State RunState
	// Class is the problem's solver class. Shock-shape runs (SubmitShock)
	// do not dispatch on Class; identify them by Solver ("euler") instead.
	Class    SolverClass
	Solver   string // registry name of the executing solver ("ns", "vsl", "euler", ...)
	Phase    string // schedule phase ("solve", "level0".."levelN", "march", "profile")
	Step     int    // completed iterations within the phase
	MaxSteps int    // the phase's iteration budget (0 when unknown)
	Residual float64
	// Fallbacks counts implicit-integrator divergence recoveries (line
	// solves that fell back to an explicit update); Refits counts mid-march
	// shock refits; Restarts counts checkpoint resumes this solve chain has
	// been through. All are 0 for solver classes without the machinery.
	Fallbacks int
	Refits    int
	Restarts  int
	// Elapsed is the solve's wall clock: it starts when the run leaves the
	// admission queue (0 while queued, and for a run canceled there) and is
	// frozen at completion, so it never counts the wait for a slot.
	Elapsed time.Duration
	Err     error // terminal error; non-nil only when State == RunDone

	history []HistoryPoint
}

// snapshotJSON is the exported wire view of a Snapshot: every field a
// service needs to report progress, spelled with stable snake_case keys,
// none of them reaching into unexported state. The state is its String form
// ("queued", "running", "done"), the class its case-file name, the elapsed
// time fractional milliseconds, and the error (if any) its message.
type snapshotJSON struct {
	State     string         `json:"state"`
	Class     string         `json:"class,omitempty"`
	Solver    string         `json:"solver,omitempty"`
	Phase     string         `json:"phase,omitempty"`
	Step      int            `json:"step"`
	MaxSteps  int            `json:"max_steps,omitempty"`
	Residual  float64        `json:"residual,omitempty"`
	Fallbacks int            `json:"fallbacks,omitempty"`
	Refits    int            `json:"refits,omitempty"`
	Restarts  int            `json:"restarts,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Error     string         `json:"error,omitempty"`
	History   []HistoryPoint `json:"history,omitempty"`
}

// MarshalJSON encodes the snapshot in its stable wire form (see the field
// list on snapshotJSON), including the retained residual history when the
// snapshot carries one — the encoding behind the serve API's status and SSE
// responses and the ledger's convergence metadata.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	v := snapshotJSON{
		State: s.State.String(),
		// Shock-shape runs do not dispatch on Class (see the Snapshot doc);
		// the solver name identifies them.
		Class:     core.ClassName(s.Class),
		Solver:    s.Solver,
		Phase:     s.Phase,
		Step:      s.Step,
		MaxSteps:  s.MaxSteps,
		Residual:  s.Residual,
		Fallbacks: s.Fallbacks,
		Refits:    s.Refits,
		Restarts:  s.Restarts,
		ElapsedMS: float64(s.Elapsed) / float64(time.Millisecond),
		History:   s.history,
	}
	if s.Err != nil {
		v.Error = s.Err.Error()
	}
	return json.Marshal(v)
}

// History returns the run's most recent (step, residual) samples in
// chronological order — at most HistoryDepth of them, captured atomically
// with the rest of the snapshot. The window covers the current schedule
// phase only (a phase switch, e.g. the coarse→fine grid-sequencing
// transition, restarts it), so steps are strictly increasing and residuals
// are comparable within one window. Classes that do not compute a residual
// (EBL, PNS, VSL) yield an empty history; services can plot a convergence
// trend from it without installing a Monitor. History is materialized on
// snapshots returned by Snapshot() and on the terminal snapshot a Watch
// channel ends with (not on intermediate watcher snapshots, which would
// cost a copy per solver step). The slice is owned by the snapshot and must
// not be mutated.
func (s Snapshot) History() []HistoryPoint { return s.history }

// runHandle is the observable core shared by Run and ShockRun: the live
// snapshot, watcher channels, cancellation and completion signalling.
type runHandle struct {
	cancel func()
	done   chan struct{}

	mu       sync.Mutex
	snap     Snapshot
	start    time.Time     // when the run left the queue; zero while queued
	final    time.Duration // elapsed frozen when the run finishes
	watchers []chan Snapshot
	err      error

	// hist is the residual-history ring: hist[(histStart+k) % HistoryDepth]
	// for k < histLen walks the retained samples oldest-first. histPhase is
	// the schedule phase the window belongs to — a phase switch restarts it
	// so the retained steps stay monotone.
	hist      [HistoryDepth]HistoryPoint
	histStart int
	histLen   int
	histPhase string
}

func (h *runHandle) init(cancel func(), p Problem) {
	h.cancel = cancel
	h.done = make(chan struct{})
	h.snap = Snapshot{State: RunQueued, Class: p.Class, MaxSteps: p.MaxSteps}
}

// Cancel aborts the run: a queued run finishes without ever solving, a
// running one stops at its next cancellation poll. Wait returns promptly
// with the context error. Cancel is safe to call at any time, repeatedly.
func (h *runHandle) Cancel() { h.cancel() }

// Done is closed when the run finishes (in any way), so runs compose with
// select loops.
func (h *runHandle) Done() <-chan struct{} { return h.done }

// Snapshot returns the run's current progress, including the retained
// residual history.
func (h *runHandle) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.snapWithHistoryLocked()
}

func (h *runHandle) snapLocked() Snapshot {
	s := h.snap
	switch s.State {
	case RunRunning:
		s.Elapsed = time.Since(h.start)
	case RunDone:
		s.Elapsed = h.final
	}
	return s
}

// snapWithHistoryLocked is snapLocked plus a copy of the history ring —
// only for on-demand snapshots and the terminal notification, so the
// per-step observe/notify path never pays the copy.
func (h *runHandle) snapWithHistoryLocked() Snapshot {
	s := h.snapLocked()
	if h.histLen > 0 {
		s.history = make([]HistoryPoint, h.histLen)
		for k := 0; k < h.histLen; k++ {
			s.history[k] = h.hist[(h.histStart+k)%HistoryDepth]
		}
	}
	return s
}

// Watch returns a channel of progress snapshots. The channel always carries
// the latest snapshot — slow receivers see stale intermediate updates
// replaced, never a backlog — and is closed after the terminal snapshot
// when the run finishes. A Watch on a finished run yields exactly the
// terminal snapshot.
func (h *runHandle) Watch() <-chan Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := make(chan Snapshot, 1)
	if h.snap.State == RunDone {
		ch <- h.snapWithHistoryLocked()
		close(ch)
		return ch
	}
	h.watchers = append(h.watchers, ch)
	return ch
}

// observe folds one solver progress report into the snapshot. It runs on
// the solving goroutine via the run's Monitor.
func (h *runHandle) observe(p core.Progress) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.snap.State = RunRunning
	h.snap.Class = p.Class
	h.snap.Solver = p.Solver
	h.snap.Phase = p.Phase
	h.snap.Step = p.Step
	if p.MaxSteps > 0 {
		h.snap.MaxSteps = p.MaxSteps
	}
	h.snap.Residual = p.Residual
	h.snap.Fallbacks = p.Fallbacks
	h.snap.Refits = p.Refits
	h.snap.Restarts = p.Restarts
	if p.Residual > 0 {
		// Retain the sample in the history ring (classes without a
		// residual never report one, so their history stays empty). A phase
		// switch — e.g. the coarse→fine grid-sequencing transition, whose
		// step counter restarts — begins a fresh window so the retained
		// steps stay monotone and the residuals comparable.
		if p.Phase != h.histPhase {
			h.histPhase = p.Phase
			h.histStart, h.histLen = 0, 0
		}
		idx := (h.histStart + h.histLen) % HistoryDepth
		h.hist[idx] = HistoryPoint{Step: p.Step, Residual: p.Residual}
		if h.histLen < HistoryDepth {
			h.histLen++
		} else {
			h.histStart = (h.histStart + 1) % HistoryDepth
		}
	}
	h.notifyLocked()
}

// running marks the transition out of the queue (a slot was acquired) and
// starts the solve clock.
func (h *runHandle) running() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.start = time.Now()
	h.snap.State = RunRunning
	h.notifyLocked()
}

// finish records the terminal state, emits the final snapshot, closes the
// watcher channels and unblocks Wait. The caller must have stored the
// result payload before calling finish.
func (h *runHandle) finish(err error) {
	h.mu.Lock()
	h.err = err
	h.snap.State = RunDone
	h.snap.Err = err
	if !h.start.IsZero() {
		h.final = time.Since(h.start)
	}
	h.notifyLocked()
	for _, ch := range h.watchers {
		close(ch)
	}
	h.watchers = nil
	h.mu.Unlock()
	close(h.done)
}

// notifyLocked pushes the current snapshot to every watcher with
// latest-value semantics: a full buffer is drained and replaced, so
// watchers never block the solve and never read a stale terminal state.
// The terminal notification carries the residual history; intermediate
// ones skip the copy (it would cost an allocation per solver step).
func (h *runHandle) notifyLocked() {
	if len(h.watchers) == 0 {
		return
	}
	s := h.snapLocked()
	if s.State == RunDone {
		s = h.snapWithHistoryLocked()
	}
	for _, ch := range h.watchers {
		select {
		case ch <- s:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- s:
			default:
			}
		}
	}
}

// Run is the handle of an asynchronously submitted solve (Session.Submit):
// a live, watchable view of the solver's progress plus the eventual result.
type Run struct {
	runHandle
	problem Problem
	env     *Environment
}

// Problem returns the problem as submitted, with session defaults applied.
func (r *Run) Problem() Problem { return r.problem }

// Wait blocks until the run finishes and returns its result. Wait is safe
// to call from any number of goroutines, repeatedly; after Cancel it
// returns promptly with the context's error.
func (r *Run) Wait() (*Environment, error) {
	<-r.done
	return r.env, r.err
}

// ShockRun is the handle of an asynchronously submitted Euler bow-shock
// solve (Session.SubmitShock).
type ShockRun struct {
	runHandle
	problem Problem
	env     *ShockEnvelope
}

// Problem returns the problem as submitted, with session defaults applied.
func (r *ShockRun) Problem() Problem { return r.problem }

// Wait blocks until the run finishes and returns its envelope.
func (r *ShockRun) Wait() (*ShockEnvelope, error) {
	<-r.done
	return r.env, r.err
}
