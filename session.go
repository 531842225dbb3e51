package cataero

import (
	"context"
	"runtime"
	"sync"

	"cataero/internal/core"
)

// Session is the primary entry point of the toolkit: a reusable, configured
// pipeline over the paper's solver hierarchy. A session owns a shared model
// stack — per-chemistry thermo/chemistry/transport models and a keyed cache
// of tabulated equilibrium EOS tables, all built lazily on first use — plus
// one shared worker pool serving every solve (see pool.go), so repeated
// solves and parameter sweeps stop paying model-construction cost and
// concurrent sweeps stop oversubscribing the CPUs. Sessions are safe for
// concurrent use.
//
// Solves run through Run handles: Submit returns immediately with a live,
// watchable view of the solver's progress, and Solve/SolveBatch are thin
// blocking wrappers over submitted runs.
type Session struct {
	stack    *core.Stack
	chem     GasChemistry
	quality  Quality
	workers  int
	flux     string
	timestep string
	limiter  string
	gridSeq  bool
	levels   int
	// Solve admission (see pool.go): at most `workers` submitted runs
	// execute concurrently; the rest wait in admitQueue, one FIFO per
	// priority lane.
	admitMu    sync.Mutex
	admitFree  int
	admitQueue [numLanes][]ticket
}

// Option configures a Session at construction.
type Option func(*Session)

// WithChemistry sets the default gas chemistry stamped onto problems whose
// Chemistry field is left at ChemistryUnset.
func WithChemistry(c GasChemistry) Option {
	return func(s *Session) { s.chem = c }
}

// WithQuality sets the default grid quality: 1 (default) leaves the solver
// defaults; 2 or higher fills finer grids into problems that do not specify
// their own discretization.
func WithQuality(q Quality) Option {
	return func(s *Session) { s.quality = q }
}

// WithWorkers bounds how many submitted runs solve concurrently — the
// session's admission width, shared by Submit, SolveBatch and
// ShockShapeBatch (default GOMAXPROCS). Runs beyond the bound queue in the
// lane of their Problem.Priority: a freed slot goes to the highest non-empty
// lane, and within a lane runs start in submission order.
func WithWorkers(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithFlux sets the default finite-volume flux kernel ("hlle", "hlle-ef",
// "hllc", "ausm+") stamped onto problems whose Flux field is left empty. The
// valid names are FluxKernels; an unknown one fails Normalize and every solve
// with that list.
func WithFlux(name string) Option {
	return func(s *Session) { s.flux = name }
}

// WithTimeStepping sets the default finite-volume time integrator
// ("explicit", "implicit") stamped onto problems whose TimeStepping field is
// left empty. The valid names are TimeSteppings; an unknown one fails
// Normalize and every solve with that list. Implicit (line-implicit, DPLR-style) stepping converges clustered
// viscous NS grids in several-fold fewer steps than the explicit default.
func WithTimeStepping(name string) Option {
	return func(s *Session) { s.timestep = name }
}

// WithGridSequencing turns on grid-sequenced NS and Euler shock-shape
// solves by default: each solve converges on a coarsened grid first and
// finishes on the fine grid from the interpolated coarse state, which
// reaches the same residual drop in less wall-clock time.
func WithGridSequencing(on bool) Option {
	return func(s *Session) { s.gridSeq = on }
}

// WithLevels sets the default multilevel grid-level count stamped onto
// problems that leave Levels at zero: 2 is the two-level cascade, 3 or more
// builds a deeper hierarchy by chained coarsening (levels the grid cannot
// reach are dropped automatically). Setting a level count
// turns sequencing on for NS and Euler shock-shape solves unless a problem
// forces GridSequencing off.
func WithLevels(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.levels = n
		}
	}
}

// WithLimiter sets the default MUSCL slope limiter ("minmod", "vanalbada" —
// see Limiters) stamped onto problems whose Limiter field is left empty; an
// unknown name fails at solve time with the valid list. The smooth van
// Albada limiter lets the implicit CFL ramp climb past the minmod limit
// cycle.
func WithLimiter(name string) Option {
	return func(s *Session) { s.limiter = name }
}

// NewSession builds a session from functional options. The zero
// configuration is useful as-is: solver-default grids, GOMAXPROCS batch
// workers, chemistry taken from each problem.
func NewSession(opts ...Option) *Session {
	s := &Session{
		stack:   core.NewStack(),
		workers: runtime.GOMAXPROCS(0),
		quality: 1,
	}
	for _, o := range opts {
		o(s)
	}
	s.admitFree = s.workers
	return s
}

// apply stamps the session defaults onto a problem specification.
func (s *Session) apply(p Problem) Problem {
	if p.Chemistry == ChemistryUnset && s.chem != ChemistryUnset {
		p.Chemistry = s.chem
	}
	if p.Flux == "" && s.flux != "" {
		p.Flux = s.flux
	}
	if p.TimeStepping == "" && s.timestep != "" {
		p.TimeStepping = s.timestep
	}
	if p.Limiter == "" && s.limiter != "" {
		p.Limiter = s.limiter
	}
	if p.Levels == 0 && s.levels != 0 {
		p.Levels = s.levels
	}
	// Grid sequencing is tri-state: the session default fills only an unset
	// toggle, so a case can force sequencing off on a session that enables
	// it (and vice versa).
	if s.gridSeq && p.GridSequencing == ToggleDefault {
		p.GridSequencing = ToggleOn
	}
	if s.quality >= 2 {
		if p.NStations == 0 {
			p.NStations = 30
		}
		if p.NI == 0 {
			p.NI = 24
		}
		if p.NJ == 0 {
			p.NJ = 40
		}
		if p.MaxSteps == 0 {
			p.MaxSteps = 6000
		}
	}
	return p
}

// Normalize returns the problem exactly as a Submit on this session would
// solve it: session defaults stamped onto unset fields, then the
// solve-independent defaults filled and the specification validated. This
// is the form to hash (CaseKey) when fronting the session with a run
// ledger — two problems that normalize identically on the same session
// produce the same solve.
func (s *Session) Normalize(p Problem) (Problem, error) {
	return core.Normalize(s.apply(p))
}

// Submit starts one problem asynchronously and returns its Run handle
// immediately. The run waits for a session solve slot (WithWorkers) in its
// Problem.Priority lane, executes against the cached model stack, and
// exposes live progress via Run.Snapshot and Run.Watch: solver class,
// schedule phase (e.g. the level1 vs level0 grid-sequencing level), step
// count, latest residual and elapsed time. Cancel the run with Run.Cancel
// or by canceling ctx; collect the result with Run.Wait.
func (s *Session) Submit(ctx context.Context, p Problem) *Run {
	p = s.apply(p)
	r := &Run{problem: p}
	s.start(ctx, p, &r.runHandle, func(ctx context.Context, p Problem) error {
		env, err := core.SolveWith(ctx, s.stack, p)
		r.env = env
		return err
	})
	return r
}

// SubmitShock starts an Euler bow-shock solve asynchronously; the ShockRun
// handle has the same progress, cancellation and wait semantics as Submit's.
func (s *Session) SubmitShock(ctx context.Context, p Problem) *ShockRun {
	p = s.apply(p)
	r := &ShockRun{problem: p}
	s.start(ctx, p, &r.runHandle, func(ctx context.Context, p Problem) error {
		env, err := core.ShockShapeWith(ctx, s.stack, p)
		r.env = env
		return err
	})
	return r
}

// start wires a run handle to the session: it installs the handle as the
// problem's progress monitor (forwarding to any monitor the problem already
// carries), then launches the solve goroutine, which queues on the
// admission slots before executing. The solve closure stores its result
// payload before the handle finishes, so Wait observes it safely.
func (s *Session) start(ctx context.Context, p Problem, h *runHandle, solve func(context.Context, Problem) error) {
	ctx, cancel := context.WithCancel(ctx)
	h.init(cancel, p)
	user := p.Monitor
	p.Monitor = core.MonitorFunc(func(pr core.Progress) {
		h.observe(pr)
		if user != nil {
			user.OnProgress(pr)
		}
	})
	// The queue position is taken here, synchronously, so the runs of a
	// lane start in submission order.
	l := lane(p.Priority)
	t := s.enqueue(l)
	go func() {
		defer cancel()
		if err := s.await(ctx, l, t); err != nil {
			h.finish(err)
			return
		}
		defer s.release()
		h.running()
		h.finish(solve(ctx, p))
	}()
}

// Solve dispatches one problem through the solver table against the
// session's cached model stack and blocks for the result — Submit + Wait.
// The context is threaded into the solver iteration loops; cancellation
// aborts with ctx.Err().
func (s *Session) Solve(ctx context.Context, p Problem) (*Environment, error) {
	return s.Submit(ctx, p).Wait()
}

// ShockShape computes an Euler bow-shock envelope (ideal or equilibrium
// air) against the session's cached model stack — SubmitShock + Wait.
func (s *Session) ShockShape(ctx context.Context, p Problem) (*ShockEnvelope, error) {
	return s.SubmitShock(ctx, p).Wait()
}

// Result is one SolveBatch outcome: the problem it came from, and either an
// environment or that problem's error.
type Result struct {
	Index   int
	Problem Problem
	Env     *Environment
	Err     error
}

// ShockResult is one ShockShapeBatch outcome.
type ShockResult struct {
	Index   int
	Problem Problem
	Env     *ShockEnvelope
	Err     error
}

// SolveBatch submits every problem and waits for all of them — a thin
// wrapper over Submit, so sweeps get per-problem progress for free via
// SubmitAll. Concurrency is bounded by the session's admission slots (see
// WithWorkers). Every problem is attempted and failures are reported
// per-problem in Result.Err, so one bad case does not abort a sweep; the
// returned error is non-nil only when the context is canceled, in which
// case unfinished problems carry ctx.Err() and finished ones keep their
// results.
func (s *Session) SolveBatch(ctx context.Context, problems []Problem) ([]Result, error) {
	runs := s.SubmitAll(ctx, problems)
	out := make([]Result, len(problems))
	for i, r := range runs {
		env, err := r.Wait()
		out[i] = Result{Index: i, Problem: problems[i], Env: env, Err: err}
	}
	return out, ctx.Err()
}

// SubmitAll submits every problem and returns the live run handles without
// waiting — the observable form of SolveBatch.
func (s *Session) SubmitAll(ctx context.Context, problems []Problem) []*Run {
	runs := make([]*Run, len(problems))
	for i, p := range problems {
		runs[i] = s.Submit(ctx, p)
	}
	return runs
}

// ShockShapeBatch runs Euler bow-shock solves as submitted runs, with the
// same admission bound and partial-failure semantics as SolveBatch.
func (s *Session) ShockShapeBatch(ctx context.Context, problems []Problem) ([]ShockResult, error) {
	runs := make([]*ShockRun, len(problems))
	for i, p := range problems {
		runs[i] = s.SubmitShock(ctx, p)
	}
	out := make([]ShockResult, len(problems))
	for i, r := range runs {
		env, err := r.Wait()
		out[i] = ShockResult{Index: i, Problem: problems[i], Env: env, Err: err}
	}
	return out, ctx.Err()
}

var (
	defaultSessionOnce sync.Once
	defaultSessionVal  *Session
)

// defaultSession backs the package-level figure runners, so they share one
// model-stack cache.
func defaultSession() *Session {
	defaultSessionOnce.Do(func() { defaultSessionVal = NewSession() })
	return defaultSessionVal
}
