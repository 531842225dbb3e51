// Package fvm is the shared structured finite-volume kernel behind the
// paper's Euler and Navier-Stokes solver classes: upwind flux kernels
// (HLLE, HLLC, AUSM+) for a general equation of state selected by name,
// optional MUSCL/minmod reconstruction, planar or axisymmetric metrics,
// thin-layer viscous terms, characteristic boundary conditions and two time
// integrators — two-stage explicit local-time-step relaxation, or
// DPLR-style line-implicit relaxation along wall-normal lines that runs
// CFL in the hundreds on clustered viscous grids. Grid metrics are
// precomputed once per solve (grid.Metrics), flux assembly is parallelized
// across grid lines on a persistent per-solver worker pool, and the
// per-step hot loops are allocation-free.
package fvm

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"sync"

	"cataero/internal/gas"
	"cataero/internal/grid"
)

// Cons holds the conserved variables of one cell.
type Cons [4]float64 // rho, rho*u, rho*v, rho*E

// Prim holds the primitive variables of one cell.
type Prim struct {
	Rho, U, V, P, T, A, E float64 // E = specific internal energy
}

// ProgressFunc observes a marching loop: phase names the sequencing stage
// ("solve" for a one-level solve, "level0" (finest) through "levelN"
// (coarsest) for a grid-sequenced one), step counts completed time steps
// within the phase (local to this process — a resumed run counts from its
// restore point), maxSteps is the phase's step budget, residual is the
// latest RMS density residual and diag carries the divergence-recovery
// counters. The callback runs on the marching goroutine after every step,
// so it must be cheap and must not call back into the solver.
type ProgressFunc func(phase string, step, maxSteps int, residual float64, diag Diag)

// Diag is the divergence-recovery diagnostics a progress callback carries:
// how hard the solve had to fight to converge, independent of whether it
// eventually did.
type Diag struct {
	// Fallbacks counts implicit lines that diverged and fell back to the
	// explicit stage over the run so far (implicit integrator only).
	Fallbacks int
	// Refits counts mid-march grid refits performed (multilevel solves).
	Refits int
	// Restarts counts checkpoint restores applied to reach this state — a
	// cold solve reports 0, a once-resumed run 1, and so on.
	Restarts int
}

// Options configures a Solver.
type Options struct {
	Gas gas.Model
	// Viscous adds the thin-layer viscous terms and makes the wall no-slip
	// and isothermal at TWall; without it the wall is an inviscid slip wall
	// (tangency).
	Viscous bool
	TWall   float64                 // isothermal wall temperature
	Mu      func(T float64) float64 // viscosity law (viscous runs)
	K       func(T float64) float64 // conductivity law
	CFL     float64                 // explicit CFL number (default 0.8)
	MUSCL   bool
	Flux    string // flux kernel name (see FluxKernels); default DefaultFlux
	// Limiter selects the MUSCL slope limiter by name (see Limiters):
	// "minmod" (the default: most dissipative, strictly TVD) or "vanalbada"
	// (smooth and differentiable, so the implicit CFL ramp stops hunting the
	// minmod limit cycle and climbs higher).
	Limiter string
	// TimeStepping selects the time integrator by name (see Integrators):
	// "explicit" (two-stage local-time-step relaxation, the default) or
	// "implicit" (line-implicit block-tridiagonal relaxation along
	// wall-normal j-lines, which runs CFL in the hundreds on clustered
	// viscous grids).
	TimeStepping string
	// ImplicitSweep selects the implicit integrator's line-sweep schedule by
	// name (see ImplicitSweeps): "jline" (wall-normal lines only, the
	// default) or "adi" (alternating-direction: each step runs the
	// wall-normal pass and then a streamwise i-line pass on a fresh
	// residual, so corrections propagate along the body in one step instead
	// of one cell per step — the schedule for high-aspect-ratio grids whose
	// streamwise cell count, not wall-normal stiffness, limits convergence).
	// The explicit integrator ignores it.
	ImplicitSweep string
	FreestreamV   [2]float64 // freestream velocity (x, y components)
	FreestreamPT  [2]float64 // freestream pressure, temperature
	// Pool, when non-nil, is a shared worker pool for the parallel sweeps;
	// the solver does not own it and Close leaves it running. When nil the
	// solver builds a private GOMAXPROCS-sized pool and releases it on
	// Close.
	Pool *Pool
	// Progress, when non-nil, is invoked after every time step of
	// SolveMultilevel with the live step count and residual.
	Progress ProgressFunc
	// CheckpointEvery, when positive together with CheckpointSink, makes
	// the finest-level march hand a state checkpoint to the sink every
	// CheckpointEvery completed steps, plus a final one when the march is
	// cancelled mid-flight (context cancellation or deadline), so the work
	// done before the cancellation survives. It never changes the solution.
	CheckpointEvery int
	// CheckpointSink receives the periodic checkpoints on the marching
	// goroutine. The *Checkpoint is a per-solver scratch reused between
	// emissions: encode (Checkpoint.AppendBinary) or deep-copy it before
	// returning.
	CheckpointSink func(*Checkpoint)
	// Restore, when non-nil, resumes the solve from the checkpoint instead
	// of from freestream: when Restore.Phase matches the finest level's
	// label, SolveMultilevel reloads the saved state and continues the
	// finest march at the saved step, skipping any coarse levels. A
	// checkpoint that does not fit (wrong shape or phase) is ignored and the
	// solve starts cold — restoring is an optimization, never a requirement.
	Restore *Checkpoint
}

// Solver marches the finite-volume equations to steady state.
type Solver struct {
	G    *grid.Grid2D
	Opts Options

	U    []Cons // cell states, row-major [i*nj + j]
	prim []Prim
	res  []Cons
	u0   []Cons // RK stage storage
	dt   []float64

	met  *grid.Metrics // precomputed face vectors, volumes, centroids
	flux BatchFluxKernel
	// limKind selects the batched reconstruction's limiter (see recon.go).
	limKind int
	pool    *Pool
	// ownsPool marks a private pool (no Options.Pool) that Close releases.
	ownsPool bool
	// phase labels Progress callbacks and checkpoints ("solve"; a sequenced
	// SolveMultilevel relabels its levels "level0".."levelN").
	phase string

	// imp is the line-implicit integrator's state, nil under explicit
	// stepping (Options.TimeStepping); Step branches on it.
	imp *implicitStepper
	// cfl is the CFL number timeSteps reads: Opts.CFL for the explicit
	// integrator, the live ramped value for the implicit one.
	cfl float64

	// Per-step sweep machinery, allocated once so Step is allocation-free:
	// prebuilt range closures (method values), the sweep descriptor every
	// sweep of this solver publishes to the pool, the per-chunk partial
	// sums of the residual reduction, the face-major flux planes the
	// residual passes difference, and the per-chunk SoA face-state pencils
	// the flux sweeps fill.
	sweepTask                      sweepTask
	partial                        []float64
	fluxI, fluxJ                   []float64 // face-major (4/face) flux planes
	bws                            []batchWS
	swPrim, swDT, swFluxI, swFluxJ func(ci, lo, hi int)
	swAccum, swStage1, swStage2    func(ci, lo, hi int)

	uInf      Cons
	pInf      Prim
	ni, nj    int
	closeOnce sync.Once

	// Checkpoint/restore state: the reusable scratch Checkpoint fills and
	// the cumulative restore count reported in Diag.
	ckpt     *Checkpoint
	restarts int
}

// New builds a solver on grid g with options o and initializes every cell to
// the freestream state.
func New(g *grid.Grid2D, o Options) (*Solver, error) {
	if o.CFL == 0 {
		o.CFL = 0.8
	}
	if o.Gas == nil {
		return nil, fmt.Errorf("fvm: gas model required")
	}
	if o.Viscous && (o.Mu == nil || o.K == nil) {
		return nil, fmt.Errorf("fvm: viscous runs need Mu and K laws")
	}
	if o.MUSCL && (g.NI < 4 || g.NJ < 4) {
		return nil, fmt.Errorf("fvm: MUSCL needs at least a 4x4 grid, got %dx%d", g.NI, g.NJ)
	}
	if err := CheckNames(o.Flux, o.TimeStepping, o.ImplicitSweep, o.Limiter); err != nil {
		return nil, err
	}
	s := &Solver{G: g, Opts: o, ni: g.NI, nj: g.NJ, met: g.Metrics(), phase: "solve", cfl: o.CFL,
		flux:    fluxTable[cmp.Or(o.Flux, DefaultFlux)],
		limKind: limiterTable[cmp.Or(o.Limiter, DefaultLimiter)],
	}
	n := s.ni * s.nj
	s.U = make([]Cons, n)
	s.prim = make([]Prim, n)
	s.res = make([]Cons, n)
	s.u0 = make([]Cons, n)
	s.dt = make([]float64, n)

	rho, e, err := o.Gas.EnergyPT(o.FreestreamPT[0], o.FreestreamPT[1])
	if err != nil {
		return nil, fmt.Errorf("fvm: freestream state: %w", err)
	}
	vx, vy := o.FreestreamV[0], o.FreestreamV[1]
	s.uInf = Cons{rho, rho * vx, rho * vy, rho * (e + 0.5*(vx*vx+vy*vy))}
	p, T, a, err := o.Gas.PrimState(rho, e)
	if err != nil {
		return nil, err
	}
	s.pInf = Prim{Rho: rho, U: vx, V: vy, P: p, T: T, A: a, E: e}
	for i := range s.U {
		s.U[i] = s.uInf
	}
	if o.Pool != nil {
		s.pool = o.Pool
	} else {
		s.pool = NewPool(0)
		s.ownsPool = true
	}
	// Hoist the per-step sweep closures, reduction scratch, flux planes and
	// face-state pencils out of the hot loop: everything binds and
	// allocates once here, so Step allocates nothing. A pencil holds the
	// nj+1 faces of a whole J-line, boundary faces included.
	s.partial = make([]float64, s.pool.chunkCount(s.ni))
	s.fluxI = make([]float64, 4*(s.ni+1)*s.nj)
	s.fluxJ = make([]float64, 4*s.ni*(s.nj+1))
	nws := s.pool.chunkCount(s.ni + 1)
	if c := s.pool.chunkCount(s.ni); c > nws {
		nws = c
	}
	s.bws = make([]batchWS, nws)
	for w := range s.bws {
		s.bws[w].L = newFaceStates(s.nj + 1)
		s.bws[w].R = newFaceStates(s.nj + 1)
	}
	s.swPrim = s.primRange
	s.swDT = s.dtRange
	s.swFluxI = s.fluxIRange
	s.swFluxJ = s.fluxJRange
	s.swAccum = s.accumRange
	s.swStage1 = s.stage1Range
	s.swStage2 = s.stage2Range
	if cmp.Or(o.TimeStepping, DefaultTimeStepping) == TimeSteppingImplicit {
		s.imp = newImplicitStepper(s)
	}
	return s, nil
}

// Close releases the solver's private worker pool (a shared Options.Pool is
// left running for its other solvers). The solver must not be stepped after
// Close; calling Close more than once is safe.
func (s *Solver) Close() {
	s.closeOnce.Do(func() {
		if s.ownsPool {
			s.pool.Close()
		}
	})
}

func (s *Solver) idx(i, j int) int { return i*s.nj + j }

// decode converts a conserved state to primitives, clamping nonphysical
// intermediate states to keep transient starts alive.
func (s *Solver) decode(u Cons) Prim {
	rho := u[0]
	if rho < 1e-12 {
		rho = 1e-12
	}
	vx := u[1] / rho
	vy := u[2] / rho
	e := u[3]/rho - 0.5*(vx*vx+vy*vy)
	if e < 1e-3*s.pInf.E {
		e = 1e-3 * s.pInf.E
	}
	p, T, a, err := s.Opts.Gas.PrimState(rho, e)
	if err != nil {
		// Fall back to freestream-like sound speed; the transient usually
		// washes these cells out.
		p = s.pInf.P
		T = s.pInf.T
		a = s.pInf.A
	}
	return Prim{Rho: rho, U: vx, V: vy, P: p, T: T, A: a, E: e}
}

// physicalState reports whether a candidate conserved state stays in the
// physical state space: finite, with density and internal energy above
// small floors relative to the freestream. Shared by the implicit
// integrator's line-update guard and the multigrid correction guard.
func (s *Solver) physicalState(u Cons) bool {
	rho := u[0]
	if math.IsNaN(rho) || math.IsNaN(u[1]) || math.IsNaN(u[2]) || math.IsNaN(u[3]) {
		return false
	}
	if rho <= 1e-9*s.pInf.Rho {
		return false
	}
	e := u[3]/rho - 0.5*(u[1]*u[1]+u[2]*u[2])/(rho*rho)
	return !math.IsNaN(e) && e > 1e-6*s.pInf.E
}

// updatePrimitives refreshes the primitive cache in parallel.
func (s *Solver) updatePrimitives() {
	s.pool.sweep(s.ni, &s.sweepTask, s.swPrim)
}

// primRange decodes the primitive cache for i-lines [lo, hi).
//
//cataero:hotpath
func (s *Solver) primRange(ci, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < s.nj; j++ {
			k := s.idx(i, j)
			s.prim[k] = s.decode(s.U[k])
		}
	}
}

// DefaultLimiter is the slope limiter used when Options.Limiter is empty.
const DefaultLimiter = LimiterMinmod

// limiterTable maps the Options.Limiter names to the limiter kinds `limited`
// dispatches on; minmod is the strictly TVD default, vanalbada the smooth
// (differentiable) variant whose limited slope varies continuously with the
// solution — under implicit stepping that continuity is what keeps the
// residual from limit-cycling between limiter branches, so the
// convergence-gated CFL ramp climbs instead of stalling.
var limiterTable = map[string]int{
	LimiterMinmod:    limKindMinmod,
	LimiterVanAlbada: limKindVanAlbada,
}

// Limiters returns the slope-limiter names in ascending order — the valid
// values of Options.Limiter.
func Limiters() []string {
	out := make([]string, 0, len(limiterTable))
	for n := range limiterTable {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// minmod is the minmod limited slope: the smaller one-sided difference,
// or zero at extrema.
//
//cataero:hotpath
func minmod(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	if math.Abs(a) < math.Abs(b) {
		return a
	}
	return b
}

// vanAlbada is the van Albada limited slope: a smooth average of the two
// one-sided differences that tends to the centered slope where they agree
// and to zero at extrema, with no switching branch for the residual to
// limit-cycle on. The epsilon regularizes the 0/0 at a flat field.
//
//cataero:hotpath
func vanAlbada(a, b float64) float64 {
	if a*b <= 0 {
		return 0
	}
	const eps = 1e-32
	return a * b * (a + b) / (a*a + b*b + eps)
}
