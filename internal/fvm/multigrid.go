package fvm

import (
	"context"
	"fmt"
	"math"

	"cataero/internal/grid"
)

// SolveMultilevel marches a solve to steady state — the one marching driver
// of the NS and Euler classes. The zero SequenceOptions is the plain
// single-grid march: one freestream-started step sets the absolute target
// r0*dropTol, and the march stops below it or after maxSteps steps. With
// Levels above 1 it builds a level hierarchy from chained grid.Coarsen calls
// (each level with its own cached metrics and a Solver sharing Options.Pool)
// and marches it as a cascade: converge the coarsest level from freestream,
// inject each converged level onto the next finer one, and finish on the
// finest. Unreachable levels (cell counts not divisible by the factor, or
// below the MUSCL floor) are dropped. The finest level stops at the same
// absolute residual a freestream-started fine solve would reach after
// dropping by dropTol; with RefitEvery set, the finest march periodically
// re-fits the outer boundary to the detected shock locus and transfers the
// solution onto the refitted grid. Progress and checkpoint phases are
// labeled "solve" for a one-level solve, and "level0" (finest) through
// "levelN" (coarsest) for a sequenced one. Returns the finest solver (which
// the caller owns) and its final residual.
func SolveMultilevel(ctx context.Context, g *grid.Grid2D, o Options, maxSteps int, dropTol float64, sq SequenceOptions) (*Solver, float64, error) {
	if maxSteps <= 0 {
		maxSteps = 2000
	}
	if err := validateMultilevel(sq); err != nil {
		return nil, 0, err
	}
	sequenced := sq.Levels > 1
	finest := "solve" // New's label, which a one-level solve keeps
	if sequenced {
		finest = "level0"
	}

	// A checkpoint carries the finest march's absolute target and refit
	// bookkeeping, so any coarse cascade is skipped on resume: build only
	// the finest solver, restore it (refitted grid nodes included) and
	// continue the march. A checkpoint of another phase (the other kind of
	// solve) or shape, and any restore failure, fall through to a cold
	// solve.
	cp := o.Restore
	o.Restore = nil
	if cp != nil && cp.Phase == finest && cp.NI == g.NI && cp.NJ == g.NJ && cp.Target > 0 {
		if s, res, err, ok := resumeMultilevel(ctx, g, o, maxSteps, sq, cp); ok {
			return s, res, err
		}
	}

	// Build the grid hierarchy by chained coarsening, dropping levels the
	// grid cannot reach.
	grids := []*grid.Grid2D{g}
	//cataero:allow ctxloop bounded by Levels (a handful of coarsenings)
	for len(grids) < sq.Levels {
		cg, err := grids[len(grids)-1].Coarsen(coarsenFactor)
		if err != nil {
			break
		}
		grids = append(grids, cg)
	}

	m := &multilevel{o: o, sq: sq, maxSteps: maxSteps, dropTol: dropTol}
	solvers := make([]*Solver, len(grids))
	//cataero:allow ctxloop one solver allocation per level, setup only
	for l, lg := range grids {
		s, err := New(lg, o)
		if err != nil {
			for _, built := range solvers[:l] {
				built.Close()
			}
			return nil, 0, err
		}
		if sequenced {
			s.phase = fmt.Sprintf("level%d", l)
		}
		solvers[l] = s
	}
	m.solvers = solvers
	m.steps = make([]int, len(solvers))
	defer func() {
		for _, s := range m.solvers[1:] {
			s.Close()
		}
	}()

	res, err := m.run(ctx)
	if err != nil {
		m.solvers[0].Close()
		return nil, 0, err
	}
	return m.solvers[0], res, nil
}

// resumeMultilevel continues a multilevel solve from a finest-level
// checkpoint: only the finest solver exists (the coarse hierarchy already
// did its work before the checkpoint), and the march picks up the saved
// refit bookkeeping. ok reports whether the checkpoint was applied; on false
// the caller solves cold.
func resumeMultilevel(ctx context.Context, g *grid.Grid2D, o Options, maxSteps int, sq SequenceOptions, cp *Checkpoint) (*Solver, float64, error, bool) {
	s, err := New(g, o)
	if err != nil {
		return nil, 0, nil, false
	}
	s.phase = cp.Phase // the finest level's label, which routed the restore
	if err := s.Restore(cp); err != nil {
		s.Close()
		return nil, 0, nil, false
	}
	m := &multilevel{
		o: o, sq: sq, maxSteps: maxSteps,
		solvers:   []*Solver{s},
		steps:     []int{0},
		fineSteps: cp.Step,
		refits:    cp.Refits,
	}
	best := math.Inf(1)
	if cp.MarchBest > 0 {
		best = cp.MarchBest
	}
	res, err := m.marchFinestFrom(ctx, cp.Target, cp.SinceRefit, best, cp.MarchStalled)
	if err != nil {
		s.Close()
		return nil, 0, err, true
	}
	return s, res, nil, true
}

// validateMultilevel fail-fast checks the multilevel knobs.
func validateMultilevel(sq SequenceOptions) error {
	if sq.Levels < 0 {
		return fmt.Errorf("fvm: multilevel solve: Levels %d negative", sq.Levels)
	}
	if sq.RefitEvery < 0 {
		return fmt.Errorf("fvm: multilevel solve: RefitEvery %d negative", sq.RefitEvery)
	}
	return nil
}

// multilevel is the state of one multilevel solve: the per-level solvers
// (index 0 = finest) and per-level step counters for progress reporting.
type multilevel struct {
	o        Options
	sq       SequenceOptions
	maxSteps int
	dropTol  float64

	solvers   []*Solver
	steps     []int // per-level completed steps (progress phase counters)
	fineSteps int   // finest-level steps consumed (the solve budget)
	refits    int   // mid-march refits performed (capped at maxRefits per solve)
}

// run converges the cascade and finishes the finest level, returning its
// final residual.
func (m *multilevel) run(ctx context.Context) (float64, error) {
	target, err := m.cascade(ctx)
	if err != nil {
		return 0, err
	}
	return m.marchFinest(ctx, target)
}

// levelTol is the per-level relative drop tolerance of the cascade,
// interpolated geometrically between coarseDropTol on the coarsest level
// (which only has to establish the shock from freestream) and the fine
// dropTol. Driving the intermediate levels well past coarseDropTol pays off:
// their steps cost a fraction of a fine step (a quarter per halving), and
// every decade they converge is a decade the finest level does not have to
// grind at full resolution.
func (m *multilevel) levelTol(l int) float64 {
	last := len(m.solvers) - 1
	if l >= last {
		return coarseDropTol
	}
	t := float64(l) / float64(last)
	return math.Exp(t*math.Log(coarseDropTol) + (1-t)*math.Log(m.dropTol))
}

// cascade converges the hierarchy coarsest-first, injecting each converged
// level onto the next finer one, and returns the finest level's absolute
// residual target. The finest level itself is not marched — run
// finishes it — except for the single calibration step that latches the
// target scale.
func (m *multilevel) cascade(ctx context.Context) (float64, error) {
	L := len(m.solvers)
	abs := 0.0 // coarsest level anchors to its own freestream-started first step
	for l := L - 1; l >= 1; l-- {
		s := m.solvers[l]
		if _, err := m.relax(ctx, l, m.maxSteps, m.levelTol(l), abs); err != nil {
			return 0, err
		}
		finer := m.solvers[l-1]
		// Calibrate the finer level's absolute target from its freestream
		// state before injecting: one freestream-started step gives the
		// residual scale a plain solve on that level would have latched
		// onto. A drop tolerance measured after injection instead would
		// punish the good initial guess — the bilinear prolongation hands
		// the finer level a first residual that is already low, and a
		// further relative drop from there can sit below the level's
		// limit-cycle floor, grinding away the whole coarse budget.
		r0 := finer.Step()
		if math.IsNaN(r0) || r0 <= 0 {
			return 0, errNaNCalibration
		}
		finer.injectFrom(s)
		if finer.imp != nil {
			finer.imp.carryCFL(s.imp)
		}
		if l-1 == 0 {
			return r0 * m.dropTol, nil
		}
		abs = r0 * m.levelTol(l-1)
	}
	// Single reachable level: latch the target from the first real step.
	// The step counts toward the fine budget; its residual cannot be below
	// the target it just defined (dropTol < 1), so marchFinest simply
	// continues from the next step. Nothing has polled the context yet.
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	fine := m.solvers[0]
	r0 := fine.Step()
	m.fineSteps++
	m.steps[0]++
	m.progress(0, r0)
	if math.IsNaN(r0) || r0 <= 0 {
		return 0, errNaNCalibration
	}
	return r0 * m.dropTol, nil
}

// relax marches level l until its residual reaches the absolute target abs
// (when abs > 0: the freestream-calibrated target of an injected level), or
// drops by tol relative to the level's first-step residual (abs == 0: the
// coarsest level, which starts from freestream anyway), bounded by budget
// steps.
func (m *multilevel) relax(ctx context.Context, l, budget int, tol, abs float64) (float64, error) {
	s := m.solvers[l]
	first := -1.0
	res := 0.0
	for n := 0; n < budget; n++ {
		if n%16 == 0 {
			if err := ctx.Err(); err != nil {
				return res, err
			}
		}
		res = s.Step()
		m.steps[l]++
		m.progress(l, res)
		if math.IsNaN(res) {
			return res, fmt.Errorf("fvm: multilevel solve: residual NaN on level %d step %d", l, m.steps[l])
		}
		if abs > 0 {
			if res < abs {
				return res, nil
			}
			continue
		}
		if first < 0 && res > 0 {
			first = res
		}
		if first > 0 && res < first*tol {
			return res, nil
		}
	}
	return res, nil
}

// maxRefits bounds the mid-march refits of one solve: the first one or two
// do the shrink-wrapping; further locus re-detections only jitter by a cell
// and would keep perturbing the march.
const maxRefits = 3

// refitStallOut ends a refit-mode march that has gone this many fine steps
// without improving its best residual by refitStallDrop: a refitted grid's
// limit-cycle floor can sit just above the freestream-calibrated absolute
// target (its shock-layer cells are smaller, so the volume-normalized floor
// is higher), and grinding thousands of steps at the floor converges
// nothing further.
const (
	refitStallOut  = 120
	refitStallDrop = 0.99
)

// marchFinest runs the finest level to the absolute target, re-fitting the
// grid every RefitEvery steps when configured.
func (m *multilevel) marchFinest(ctx context.Context, target float64) (float64, error) {
	return m.marchFinestFrom(ctx, target, 0, math.Inf(1), 0)
}

// marchFinestFrom is marchFinest continuing from saved refit bookkeeping —
// the checkpoint-resume entry point (resumeMultilevel); the cold march
// starts it at the zero position. With checkpointing configured it emits a
// finest-level checkpoint every CheckpointEvery fine steps, plus a final
// one when the context cancels the march mid-flight.
func (m *multilevel) marchFinestFrom(ctx context.Context, target float64, sinceRefit int, best float64, stalled int) (float64, error) {
	s := m.solvers[0]
	res := -1.0 // no step taken yet
	ckpt := m.o.CheckpointEvery > 0 && m.o.CheckpointSink != nil
	for m.fineSteps < m.maxSteps {
		if m.fineSteps%16 == 0 {
			if err := ctx.Err(); err != nil {
				if ckpt {
					m.checkpointFinest(target, sinceRefit, best, stalled)
				}
				return res, err
			}
		}
		res = s.Step()
		m.fineSteps++
		m.steps[0]++
		sinceRefit++
		m.progress(0, res)
		if math.IsNaN(res) {
			return res, fmt.Errorf("fvm: multilevel solve: residual NaN at fine step %d", m.fineSteps)
		}
		if res < target {
			return res, nil
		}
		if ckpt && m.fineSteps%m.o.CheckpointEvery == 0 {
			m.checkpointFinest(target, sinceRefit, best, stalled)
		}
		if m.sq.RefitEvery > 0 {
			if res < refitStallDrop*best {
				best = res
				stalled = 0
			} else if stalled++; stalled >= refitStallOut {
				// Converged to the refitted grid's own floor.
				return res, nil
			}
			if m.refits < maxRefits && sinceRefit >= m.sq.RefitEvery && m.fineSteps < m.maxSteps {
				did, err := m.refitFinest()
				if err != nil {
					return res, err
				}
				if did {
					m.refits++
					best, stalled = math.Inf(1), 0
				}
				sinceRefit = 0
			}
		}
	}
	return res, nil
}

// progress reports a level's step to the configured Progress callback.
func (m *multilevel) progress(l int, res float64) {
	if m.o.Progress == nil {
		return
	}
	m.o.Progress(m.solvers[l].phase, m.steps[l], m.maxSteps, res, m.solvers[l].diag(m.refits))
}

// checkpointFinest emits a finest-level checkpoint carrying the march's
// absolute target and refit bookkeeping, so resumeMultilevel can continue
// the march without re-running the cascade.
func (m *multilevel) checkpointFinest(target float64, sinceRefit int, best float64, stalled int) {
	s := m.solvers[0]
	cp := s.Checkpoint()
	cp.Step = m.fineSteps
	cp.Target = target
	cp.Refits = m.refits
	cp.SinceRefit = sinceRefit
	if !math.IsInf(best, 1) {
		cp.MarchBest = best
	}
	cp.MarchStalled = stalled
	m.o.CheckpointSink(cp)
}

// refitFinest re-detects the shock locus on the finest level, re-fits the
// outer boundary with refitMargin and transfers the solution onto
// the refitted grid, reporting whether a refit actually happened. A refit
// that would move the boundary by less than 5% everywhere is skipped — the
// grid has already shrink-wrapped the shock, and locus re-detection only
// jitters by a cell.
func (m *multilevel) refitFinest() (bool, error) {
	s := m.solvers[0]
	ng, err := refitToShock(s)
	if err != nil {
		return false, fmt.Errorf("fvm: multilevel solve: mid-march refit: %w", err)
	}
	moved := 0.0
	for i := 0; i <= s.ni; i++ {
		d0, d1 := s.G.WallDistance(i), ng.WallDistance(i)
		if d0 > 0 {
			if rel := math.Abs(d1-d0) / d0; rel > moved {
				moved = rel
			}
		}
	}
	if moved < 0.05 {
		return false, nil
	}
	if err := s.RefitTo(ng); err != nil {
		return false, err
	}
	if s.imp != nil {
		s.imp.resetRamp()
	}
	return true, nil
}

// RefitTo moves the solver onto a re-fitted grid with identical cell counts
// (same body and wall, new outer-boundary standoff), transferring the
// conserved field by linear interpolation in wall-normal distance along each
// i-line: the mid-march shock-refitting transfer. New cell centers outside
// the old line's span clamp to its end states.
func (s *Solver) RefitTo(ng *grid.Grid2D) error {
	if ng.NI != s.ni || ng.NJ != s.nj {
		return fmt.Errorf("fvm: RefitTo needs matching cell counts, got %dx%d want %dx%d", ng.NI, ng.NJ, s.ni, s.nj)
	}
	nm := ng.Metrics()
	nj := s.nj
	dOld := make([]float64, nj)
	uOld := make([]Cons, nj)
	for i := 0; i < s.ni; i++ {
		// Wall midpoint of the i-line (identical on both grids: Refit keeps
		// the wall nodes).
		xw := 0.5 * (s.G.X[i][0] + s.G.X[i+1][0])
		yw := 0.5 * (s.G.Y[i][0] + s.G.Y[i+1][0])
		for j := 0; j < nj; j++ {
			k := s.idx(i, j)
			dOld[j] = math.Hypot(s.met.Cx[k]-xw, s.met.Cy[k]-yw)
			uOld[j] = s.U[k]
		}
		for j := 0; j < nj; j++ {
			k := s.idx(i, j)
			d := math.Hypot(nm.Cx[k]-xw, nm.Cy[k]-yw)
			s.U[k] = interpCons(dOld, uOld, d)
		}
	}
	s.G = ng
	s.met = nm
	return nil
}

// interpCons linearly interpolates a conserved-state profile at distance d,
// clamping outside the sample span.
func interpCons(ds []float64, us []Cons, d float64) Cons {
	n := len(ds)
	if d <= ds[0] {
		return us[0]
	}
	if d >= ds[n-1] {
		return us[n-1]
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ds[mid] <= d {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (d - ds[lo]) / (ds[hi] - ds[lo])
	var out Cons
	for c := 0; c < 4; c++ {
		out[c] = us[lo][c] + t*(us[hi][c]-us[lo][c])
	}
	return out
}
