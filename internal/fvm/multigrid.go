package fvm

import (
	"context"
	"fmt"
	"math"

	"cataero/internal/grid"
)

// SolveMultilevel marches a solve to steady state — the one marching driver
// of the NS and Euler classes. With Levels above 1 it builds a level
// hierarchy from chained grid.Coarsen calls (each level with its own cached
// metrics and a Solver sharing Options.Pool), dropping the levels the grid
// cannot reach (cell counts not divisible by the factor, or below the MUSCL
// floor). One loop (march) steps every level, coarsest first, to its
// absolute residual target. The coarsest level, and the only level of a
// one-level solve (the zero SequenceOptions), latches its target from its
// own freestream-started first step: r0*dropTol for the finest level, so a
// one-level solve stops where a plain march dropping by dropTol would. At
// each handoff the next finer level takes one uncounted step from
// freestream to calibrate its target, then receives the injected coarse
// field. With RefitEvery set, the finest march periodically re-fits the
// outer boundary to the detected shock locus and transfers the solution
// onto the refitted grid. Progress and checkpoint phases are labeled
// "solve" for a one-level solve, and "level0" (finest) through "levelN"
// (coarsest) for a sequenced one. Returns the finest solver (which the
// caller owns) and its final residual.
func SolveMultilevel(ctx context.Context, g *grid.Grid2D, o Options, maxSteps int, dropTol float64, sq SequenceOptions) (*Solver, float64, error) {
	if maxSteps <= 0 {
		maxSteps = 2000
	}
	if err := validateMultilevel(sq); err != nil {
		return nil, 0, err
	}
	label := func(l int) string {
		if sq.Levels > 1 {
			return fmt.Sprintf("level%d", l)
		}
		return "solve" // New's label, which a one-level solve keeps
	}
	m := &multilevel{o: o, sq: sq, maxSteps: maxSteps, dropTol: dropTol, best: math.Inf(1)}
	m.o.Restore = nil

	// A checkpoint carries the finest march's position, so a resume builds
	// only the finest level, restores it (refitted grid nodes included) and
	// marches it on; the coarse levels did their work before the
	// checkpoint. A checkpoint of another phase (the other kind of solve) or
	// shape, and any restore failure, fall through to a cold solve.
	if cp := o.Restore; cp != nil && cp.Phase == label(0) && cp.NI == g.NI && cp.NJ == g.NJ && cp.Target > 0 {
		if s, err := New(g, m.o); err == nil {
			s.phase = cp.Phase
			if s.Restore(cp) != nil {
				s.Close()
			} else {
				m.solvers = []*Solver{s}
				m.target, m.fineSteps = cp.Target, cp.Step
				m.refits, m.sinceRefit, m.stalled = cp.Refits, cp.SinceRefit, cp.MarchStalled
				if cp.MarchBest > 0 {
					m.best = cp.MarchBest
				}
			}
		}
	}
	if m.solvers == nil {
		grids := []*grid.Grid2D{g}
		//cataero:allow ctxloop bounded by Levels (a handful of coarsenings)
		for len(grids) < sq.Levels {
			cg, err := grids[len(grids)-1].Coarsen(coarsenFactor)
			if err != nil {
				break
			}
			grids = append(grids, cg)
		}
		//cataero:allow ctxloop one solver allocation per level, setup only
		for l, lg := range grids {
			s, err := New(lg, m.o)
			if err != nil {
				for _, built := range m.solvers {
					built.Close()
				}
				return nil, 0, err
			}
			s.phase = label(l)
			m.solvers = append(m.solvers, s)
		}
	}
	m.steps = make([]int, len(m.solvers))
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
// (index 0 = finest), per-level step counters for progress reporting, and
// the march position. The position fields are exactly what a finest-level
// checkpoint saves and a resume restores.
type multilevel struct {
	o        Options
	sq       SequenceOptions
	maxSteps int
	dropTol  float64

	solvers []*Solver
	steps   []int // per-level steps this process took (progress counters)

	target     float64 // the marching level's absolute residual target (0: latch from the first step)
	fineSteps  int     // finest-level steps across resumes (the finest budget)
	refits     int     // mid-march refits performed (capped at maxRefits per solve)
	sinceRefit int     // finest steps since the last refit attempt
	best       float64 // best finest residual since the last refit (+Inf: none yet)
	stalled    int     // finest steps since best last improved by refitStallDrop
}

// run marches the levels coarsest first. After each coarse level the next
// finer one calibrates its target and takes the injected field: one
// freestream-started step gives the residual scale a plain solve on that
// level would have latched onto. A drop measured after injection instead
// would punish the good initial guess — the bilinear prolongation hands the
// finer level a first residual that is already low, and a further relative
// drop from there can sit below the level's limit-cycle floor, grinding
// away the whole coarse budget. Returns the finest level's final residual.
func (m *multilevel) run(ctx context.Context) (float64, error) {
	for l := len(m.solvers) - 1; l > 0; l-- {
		if _, err := m.march(ctx, l); err != nil {
			return 0, err
		}
		coarse, finer := m.solvers[l], m.solvers[l-1]
		r0 := finer.Step()
		if math.IsNaN(r0) || r0 <= 0 {
			return 0, errNaNCalibration
		}
		finer.injectFrom(coarse)
		if finer.imp != nil {
			finer.imp.carryCFL(coarse.imp)
		}
		m.target = r0 * m.levelTol(l-1)
	}
	return m.march(ctx, 0)
}

// levelTol is level l's relative drop tolerance: dropTol itself on the
// finest level, coarseDropTol on the coarsest level of a cascade (which only
// has to establish the shock from freestream), and a geometric
// interpolation between the two on the levels in between. Driving the
// intermediate levels well past coarseDropTol pays off: their steps cost a
// fraction of a fine step (a quarter per halving), and every decade they
// converge is a decade the finest level does not have to grind at full
// resolution.
func (m *multilevel) levelTol(l int) float64 {
	last := len(m.solvers) - 1
	switch l {
	case 0:
		return m.dropTol
	case last:
		return coarseDropTol
	}
	t := float64(l) / float64(last)
	return math.Exp(t*math.Log(coarseDropTol) + (1-t)*math.Log(m.dropTol))
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

// march steps level l until its residual falls below m.target or the level
// has taken maxSteps steps; on the finest level the count runs across
// resumes. A level that starts without a target (the coarsest, or the only
// one) latches it from its first step, times levelTol(l); that step counts
// toward maxSteps and the progress count, but not toward the finest level's
// refit, stall-out and checkpoint cadences. The context is polled every 16
// steps of the count. On the finest level the march re-fits the grid every
// RefitEvery steps when configured, and with checkpointing configured it
// emits a checkpoint every CheckpointEvery steps, plus a final one when the
// context cancels the march once it has a target.
func (m *multilevel) march(ctx context.Context, l int) (float64, error) {
	s := m.solvers[l]
	fine := l == 0
	ckpt := fine && m.o.CheckpointEvery > 0 && m.o.CheckpointSink != nil
	res := 0.0
	for {
		n := m.steps[l]
		if fine {
			n = m.fineSteps
		}
		if n >= m.maxSteps {
			return res, nil
		}
		if n%16 == 0 {
			if err := ctx.Err(); err != nil {
				if ckpt && m.target > 0 {
					m.checkpoint()
				}
				return res, err
			}
		}
		res = s.Step()
		m.steps[l]++
		if fine {
			m.fineSteps++
		}
		m.progress(l, res)
		if math.IsNaN(res) {
			return res, fmt.Errorf("fvm: multilevel solve: residual NaN on level %d step %d", l, n+1)
		}
		if m.target == 0 {
			if res <= 0 {
				return res, errNaNCalibration
			}
			m.target = res * m.levelTol(l)
			continue
		}
		if res < m.target {
			return res, nil
		}
		if !fine {
			continue
		}
		m.sinceRefit++
		if m.sq.RefitEvery > 0 {
			if res < refitStallDrop*m.best {
				m.best, m.stalled = res, 0
			} else if m.stalled++; m.stalled >= refitStallOut {
				// Converged to the refitted grid's own floor.
				return res, nil
			}
			if m.refits < maxRefits && m.sinceRefit >= m.sq.RefitEvery && m.fineSteps < m.maxSteps {
				did, err := m.refitFinest()
				if err != nil {
					return res, err
				}
				if did {
					m.refits++
					m.best, m.stalled = math.Inf(1), 0
				}
				m.sinceRefit = 0
			}
		}
		// The step is whole, refit bookkeeping included: a resume from here
		// continues with the next step.
		if ckpt && m.fineSteps%m.o.CheckpointEvery == 0 {
			m.checkpoint()
		}
	}
}

// progress reports a level's step to the configured Progress callback.
func (m *multilevel) progress(l int, res float64) {
	if m.o.Progress == nil {
		return
	}
	m.o.Progress(m.solvers[l].phase, m.steps[l], m.maxSteps, res, m.solvers[l].diag(m.refits))
}

// checkpoint emits a finest-level checkpoint carrying the march position,
// from which SolveMultilevel resumes without re-running the coarse levels.
func (m *multilevel) checkpoint() {
	cp := m.solvers[0].Checkpoint()
	cp.Step, cp.Target = m.fineSteps, m.target
	cp.Refits, cp.SinceRefit, cp.MarchStalled = m.refits, m.sinceRefit, m.stalled
	if !math.IsInf(m.best, 1) {
		cp.MarchBest = m.best
	}
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
