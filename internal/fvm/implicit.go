package fvm

import (
	"math"

	"cataero/internal/numerics"
)

// The implicit integrator's CFL schedule: start low while the transient
// establishes the shock, grow geometrically as the solution settles, and
// cap at the relaxation limit. A diverging line halves the CFL (never below
// rampStart) before it resumes growing.
const (
	rampStart  = 2.0
	rampGrowth = 1.25
	rampMax    = 200.0
)

// DefaultImplicitSweep is the sweep schedule used when Options.ImplicitSweep
// is empty.
const DefaultImplicitSweep = ImplicitSweepJLine

// ImplicitSweeps returns the implicit sweep schedules in ascending order —
// the valid values of Options.ImplicitSweep.
func ImplicitSweeps() []string { return []string{ImplicitSweepADI, ImplicitSweepJLine} }

// --- implicit: DPLR-style line-implicit relaxation ---
//
// The explicit scheme is CFL-bound by the finest wall-normal spacing, which
// on clustered viscous grids means thousands of steps per solve. The
// implicit integrator removes exactly that restriction: per i-station it
// solves a block-tridiagonal 4×4 system along the wall-normal j-line,
// linearizing the j-face fluxes to first order (exact convective Jacobian of
// the physical flux plus spectral-radius dissipation — the Jacobian-free
// lower-order LHS of the DPLR/US3D lineage) and folding the i-direction and
// boundary couplings into the diagonal by their spectral radii
// (point-implicit, unconditionally stable in the scalar model). The RHS is
// the full (optionally MUSCL) residual, so the converged state is identical
// to the explicit scheme's.
//
// Under the "adi" sweep schedule each step follows the wall-normal pass
// with a streamwise pass: the same block-tridiagonal relaxation along
// i-lines (constant j), with the i-face fluxes linearized and the j-faces
// folded point-implicit. The wall-normal pass alone propagates corrections
// one cell per step along the body, so high-aspect-ratio grids (long
// slender afterbodies) converge at a rate set by the streamwise cell count;
// the alternating sweep carries them the length of the line in one solve.
//
// Both passes assemble their systems the SoA way the residual sweeps do:
// the line's cell states are gathered once into a structure-of-arrays
// pencil, a batched Jacobian fill (jacPlanes) writes each cell's two
// face-normal Jacobian blocks in a straight-line loop, and the
// block-tridiagonal solver equilibrates and factors the plane in a single
// fused traversal (numerics.SolveFlatScaled).

// newImplicitStepper binds the implicit integrator to a solver whose names
// New has checked, allocating its per-chunk line workspaces.
func newImplicitStepper(s *Solver) *implicitStepper {
	st := &implicitStepper{s: s, cfl: rampStart}
	switch s.Opts.ImplicitSweep {
	case ImplicitSweepADI:
		st.adi = true
	}
	vs := s.pInf.A + math.Hypot(s.pInf.U, s.pInf.V)
	st.scl = [4]float64{1, vs, vs, vs * vs}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			st.rat[r*4+c] = st.scl[c] / st.scl[r]
		}
	}
	// Workspace sizing: the wall-normal pass runs lines of nj cells in
	// chunkCount(ni) chunks; the streamwise pass (adi) runs lines of ni
	// cells in chunkCount(nj) chunks. One workspace pool serves both.
	maxLine := s.nj
	nws := s.pool.chunkCount(s.ni)
	if st.adi {
		if s.ni > maxLine {
			maxLine = s.ni
		}
		if c := s.pool.chunkCount(s.nj); c > nws {
			nws = c
		}
	}
	st.ws = make([]*implicitLineWS, nws)
	for i := range st.ws {
		st.ws[i] = &implicitLineWS{
			A:    make([]float64, maxLine*16),
			B:    make([]float64, maxLine*16),
			C:    make([]float64, maxLine*16),
			D:    make([]float64, maxLine*4),
			u:    make([]float64, maxLine),
			v:    make([]float64, maxLine),
			a:    make([]float64, maxLine),
			g1:   make([]float64, maxLine),
			h:    make([]float64, maxLine),
			nrm:  make([]float64, 3*(maxLine+1)),
			lam:  make([]float64, maxLine+1),
			visc: make([]float64, maxLine+1),
			jlo:  make([]float64, maxLine*16),
			jhi:  make([]float64, maxLine*16),
			bt:   numerics.NewBlockTridiagWorkspace(4),
		}
	}
	st.sweepJ = st.lineRangeJ
	st.sweepI = st.lineRangeI
	return st
}

// implicitLineWS is the per-worker-chunk workspace of the line sweeps: one
// block-tridiagonal system (reused by every line the chunk owns), the SoA
// pencil of the line's cell states, the batched Jacobian planes, the
// factorization scratch and the chunk's partial results. Allocated once per
// solver so stepping is allocation-free; sized for the longer of the two
// sweep directions so both passes share it.
type implicitLineWS struct {
	A, B, C []float64 // line 4×4 blocks, flat row-major
	D       []float64 // right-hand 4-vectors / solution
	// SoA pencil of the line's cells: velocity, sound speed, clamped
	// effective gamma minus one, and total enthalpy — everything the
	// batched Jacobian fill reads, gathered once per line.
	u, v, a, g1, h []float64
	nrm            []float64 // (nx, ny, area) per face, gathered for strided sweeps
	lam            []float64 // per-face spectral-radius dissipation bound
	visc           []float64 // per-face viscous identity-coupling coefficient
	jlo, jhi       []float64 // per-cell Jacobian blocks at the cell's lo/hi face
	jm, jp         [16]float64
	bt             *numerics.BlockTridiagWorkspace
	sum            float64 // chunk's share of the squared density residual
	fell           int     // lines that fell back to the explicit stage this step
}

type implicitStepper struct {
	s   *Solver
	cfl float64
	// adi enables the streamwise (i-line) pass after each wall-normal pass
	// (Options.ImplicitSweep "adi").
	adi            bool
	ws             []*implicitLineWS
	sweepJ, sweepI func(ci, lo, hi int)
	// scl/rat equilibrate the line systems before factorization: conserved
	// variables mix mass, momentum and energy scales spanning many orders of
	// magnitude, and the block elimination loses the solution to
	// cancellation without row/column scaling. scl is the per-component
	// variable scale (1, v, v, v²); rat[r*4+c] = scl[c]/scl[r] maps a block
	// entry into the scaled system.
	scl [4]float64
	rat [16]float64
	// fallbacks counts diverged-line explicit fallbacks over the whole run
	// (observable by tests and divergence diagnostics).
	fallbacks int
	// best/stall/cap gate the ramp on convergence: the CFL grows only while
	// the residual keeps making new lows, and is halved when it limit-cycles
	// (stallWindow steps without a new low). The plateau level of the
	// limiter/defect-correction cycle scales with the CFL, so after a stall
	// the dynamic cap keeps the ramp from climbing straight back to the
	// level that stalled; sustained descent relaxes the cap again.
	best  float64
	stall int
	cap   float64
	lows  int
}

// stallWindow is how many steps without a new residual low the ramp
// tolerates before halving the CFL.
const stallWindow = 12

// carryCFL seeds the ramp from another solver's integrator state at a
// multilevel transition: a coarser level that has already relaxed the
// transient proves a high CFL is safe, so the finer level starts there
// instead of re-climbing from rampStart. The convergence bookkeeping re-latches
// fresh (the levels' residual scales differ).
func (st *implicitStepper) carryCFL(src *implicitStepper) {
	cfl := src.cfl
	if cfl > rampMax {
		cfl = rampMax
	}
	if cfl > st.cfl {
		st.cfl = cfl
	}
	st.best, st.stall, st.lows = 0, 0, 0
	st.cap = rampMax
}

// resetRamp re-latches the convergence bookkeeping after a grid change
// (mid-march refit): the transferred state makes the retained residual lows
// meaningless, and the refit transient should not read as a limit-cycle
// stall.
func (st *implicitStepper) resetRamp() {
	st.best, st.stall, st.lows = 0, 0, 0
	st.cap = rampMax
}

// Step advances one line-implicit time step: full residual evaluation at the
// ramped CFL, one block-tridiagonal solve per wall-normal line (parallel
// across lines on the worker pool), an explicit fallback on any line whose
// update leaves the physical state space, and a CFL ramp update. Under the
// "adi" schedule the wall-normal pass is followed by a streamwise pass on a
// freshly evaluated residual. Returns the RMS density residual of the
// step-entry RHS (the wall-normal pass's), so the two schedules report the
// same convergence measure.
//
//cataero:hotpath
func (st *implicitStepper) Step() float64 {
	s := st.s
	s.cfl = st.cfl
	s.updatePrimitives()
	s.timeSteps()
	s.computeResidual()
	s.pool.sweep(s.ni, &s.sweepTask, st.sweepJ)
	sum := 0.0
	fell := 0
	for _, w := range st.ws[:s.pool.chunkCount(s.ni)] {
		sum += w.sum
		fell += w.fell
	}
	if st.adi {
		// Streamwise pass: the wall-normal updates are already applied, so
		// refresh the primitives and residual before sweeping the i-lines.
		// The local time steps are reused — dt is a relaxation parameter
		// and the state moved by one under-resolved transient increment.
		s.updatePrimitives()
		s.computeResidual()
		s.pool.sweep(s.nj, &s.sweepTask, st.sweepI)
		for _, w := range st.ws[:s.pool.chunkCount(s.nj)] {
			fell += w.fell
		}
	}
	st.fallbacks += fell
	r := math.Sqrt(sum / float64(s.ni*s.nj))
	if st.cap == 0 {
		st.cap = rampMax
	}
	switch {
	case fell > 0:
		// A diverging line means the linearization overstepped: back the
		// ramp off (and hold it there) before growing again.
		st.cfl = math.Max(rampStart, 0.5*st.cfl)
		st.cap = math.Max(rampStart, st.cfl)
		st.stall, st.lows = 0, 0
	case st.best == 0 || r < 0.98*st.best:
		if st.lows++; st.lows >= 2*stallWindow && st.cap < rampMax {
			// Sustained descent: let the cap recover.
			st.cap = math.Min(rampMax, 1.5*st.cap)
			st.lows = 0
		}
		st.cfl = math.Min(st.cap, st.cfl*rampGrowth)
		st.stall = 0
	default:
		st.lows = 0
		if st.stall++; st.stall >= stallWindow {
			st.cfl = math.Max(rampStart, 0.5*st.cfl)
			st.cap = math.Max(rampStart, st.cfl)
			st.stall = 0
		}
	}
	if r > 0 && (st.best == 0 || r < st.best) {
		st.best = r
	}
	return r
}

// lineRangeJ assembles and solves the wall-normal systems for i-lines
// [lo, hi) — one sweep chunk, using that chunk's private workspace.
//
//cataero:hotpath
func (st *implicitStepper) lineRangeJ(ci, lo, hi int) {
	w := st.ws[ci]
	w.sum, w.fell = 0, 0
	for i := lo; i < hi; i++ {
		st.solveLineJ(i, w)
	}
}

// lineRangeI assembles and solves the streamwise systems for j-lines
// [lo, hi) — the adi pass's sweep chunk.
//
//cataero:hotpath
func (st *implicitStepper) lineRangeI(ci, lo, hi int) {
	w := st.ws[ci]
	w.sum, w.fell = 0, 0
	for j := lo; j < hi; j++ {
		st.solveLineI(j, w)
	}
}

// addScaledIdent adds c*I to the 4×4 block at dst.
func addScaledIdent(dst []float64, c float64) {
	dst[0] += c
	dst[5] += c
	dst[10] += c
	dst[15] += c
}

// addScaled adds c*src to the 4×4 block at dst.
func addScaled(dst, src []float64, c float64) {
	for k := 0; k < 16; k++ {
		dst[k] += c * src[k]
	}
}

// mirrorCols right-multiplies the 4×4 block by the conserved-variable
// reflection matrix M = diag(1, I − 2nnᵀ, 1): the Jacobian of the mirrored
// ghost state with respect to the interior state.
func mirrorCols(x []float64, nx, ny float64) {
	for r := 0; r < 4; r++ {
		dot := x[r*4+1]*nx + x[r*4+2]*ny
		x[r*4+1] -= 2 * dot * nx
		x[r*4+2] -= 2 * dot * ny
	}
}

// jacN writes scale times the inviscid flux Jacobian ∂F_n/∂U at state q
// into dst (4×4 row-major), using the cell's effective gamma
// (rho a²/p) so the linearization tracks a general equation of state.
func jacN(dst []float64, q Prim, nx, ny, scale float64) {
	g := q.A * q.A * q.Rho / q.P
	if g < 1.05 {
		g = 1.05
	} else if g > 1.8 {
		g = 1.8
	}
	g1 := g - 1
	u, v := q.U, q.V
	un := u*nx + v*ny
	q2 := u*u + v*v
	phi := 0.5 * g1 * q2
	H := q.E + q.P/q.Rho + 0.5*q2
	dst[0], dst[1], dst[2], dst[3] = 0, scale*nx, scale*ny, 0
	dst[4] = scale * (phi*nx - u*un)
	dst[5] = scale * (un + (2-g)*u*nx)
	dst[6] = scale * (u*ny - g1*v*nx)
	dst[7] = scale * (g1 * nx)
	dst[8] = scale * (phi*ny - v*un)
	dst[9] = scale * (v*nx - g1*u*ny)
	dst[10] = scale * (un + (2-g)*v*ny)
	dst[11] = scale * (g1 * ny)
	dst[12] = scale * ((phi - H) * un)
	dst[13] = scale * (H*nx - g1*u*un)
	dst[14] = scale * (H*ny - g1*v*un)
	dst[15] = scale * (g * un)
}

// jacPlanes is the batched Jacobian fill of the line assembly: for every
// cell c of the pencil it writes the area-scaled inviscid flux Jacobian at
// the cell's low face (normal nrm[3c..]) into jlo and at its high face
// (normal nrm[3(c+1)..]) into jhi, in one straight-line loop over the SoA
// slices. The per-cell invariants (velocity, clamped g−1, total enthalpy)
// are loaded once and shared by both blocks, and the arithmetic matches
// jacN entry for entry — the finite-difference Jacobian tests pin both.
//
//cataero:hotpath
func jacPlanes(jlo, jhi, u, v, g1, h, nrm []float64, n int) {
	for c := 0; c < n; c++ {
		uu, vv := u[c], v[c]
		g1c, H := g1[c], h[c]
		q2 := uu*uu + vv*vv
		phi := 0.5 * g1c * q2
		g2 := 1 - g1c // == 2 − g
		g := g1c + 1

		nx, ny, scale := nrm[3*c], nrm[3*c+1], nrm[3*c+2]
		un := uu*nx + vv*ny
		lo := jlo[c*16 : c*16+16 : c*16+16]
		lo[0], lo[1], lo[2], lo[3] = 0, scale*nx, scale*ny, 0
		lo[4] = scale * (phi*nx - uu*un)
		lo[5] = scale * (un + g2*uu*nx)
		lo[6] = scale * (uu*ny - g1c*vv*nx)
		lo[7] = scale * (g1c * nx)
		lo[8] = scale * (phi*ny - vv*un)
		lo[9] = scale * (vv*nx - g1c*uu*ny)
		lo[10] = scale * (un + g2*vv*ny)
		lo[11] = scale * (g1c * ny)
		lo[12] = scale * ((phi - H) * un)
		lo[13] = scale * (H*nx - g1c*uu*un)
		lo[14] = scale * (H*ny - g1c*vv*un)
		lo[15] = scale * (g * un)

		nx, ny, scale = nrm[3*c+3], nrm[3*c+4], nrm[3*c+5]
		un = uu*nx + vv*ny
		hi := jhi[c*16 : c*16+16 : c*16+16]
		hi[0], hi[1], hi[2], hi[3] = 0, scale*nx, scale*ny, 0
		hi[4] = scale * (phi*nx - uu*un)
		hi[5] = scale * (un + g2*uu*nx)
		hi[6] = scale * (uu*ny - g1c*vv*nx)
		hi[7] = scale * (g1c * nx)
		hi[8] = scale * (phi*ny - vv*un)
		hi[9] = scale * (vv*nx - g1c*uu*ny)
		hi[10] = scale * (un + g2*vv*ny)
		hi[11] = scale * (g1c * ny)
		hi[12] = scale * ((phi - H) * un)
		hi[13] = scale * (H*nx - g1c*uu*un)
		hi[14] = scale * (H*ny - g1c*vv*un)
		hi[15] = scale * (g * un)
	}
}

// interiorFaces folds the interior-face linearizations of a line of n cells
// into the assembled system from the precomputed Jacobian planes and
// per-face dissipation/viscous coefficients: face f couples cells f−1 and f
// with ∂F/∂U_m ≈ ½(S·A(m) + λI) and ∂F/∂U_p ≈ ½(S·A(p) − λI), plus the
// identity viscous coupling. The off-diagonal blocks A[f] and C[f−1] are
// each written by exactly one face, so they are assigned (no zeroing
// pre-pass); the diagonal blocks accumulate onto the V/Δt + point-implicit
// fold the gather pass left there.
//
//cataero:hotpath
func (st *implicitStepper) interiorFaces(w *implicitLineWS, n int) {
	for f := 1; f < n; f++ {
		jm := w.jhi[(f-1)*16 : (f-1)*16+16 : (f-1)*16+16]
		jp := w.jlo[f*16 : f*16+16 : f*16+16]
		Bm := w.B[(f-1)*16 : f*16]
		Cm := w.C[(f-1)*16 : f*16]
		Af := w.A[f*16 : (f+1)*16]
		Bf := w.B[f*16 : (f+1)*16]
		for k := 0; k < 16; k++ {
			hm := 0.5 * jm[k]
			hp := 0.5 * jp[k]
			Bm[k] += hm
			Cm[k] = hp
			Af[k] = -hm
			Bf[k] -= hp
		}
		d := 0.5*w.lam[f] + w.visc[f]
		Bm[0] += d
		Bm[5] += d
		Bm[10] += d
		Bm[15] += d
		Cm[0] -= d
		Cm[5] -= d
		Cm[10] -= d
		Cm[15] -= d
		Af[0] -= d
		Af[5] -= d
		Af[10] -= d
		Af[15] -= d
		Bf[0] += d
		Bf[5] += d
		Bf[10] += d
		Bf[15] += d
	}
}

// gatherCell stores cell state q into pencil slot c: velocity, sound speed,
// the clamped effective gamma minus one, and total enthalpy.
//
//cataero:hotpath
func (w *implicitLineWS) gatherCell(c int, q Prim) {
	g := q.A * q.A * q.Rho / q.P
	if g < 1.05 {
		g = 1.05
	} else if g > 1.8 {
		g = 1.8
	}
	w.u[c], w.v[c], w.a[c] = q.U, q.V, q.A
	w.g1[c] = g - 1
	w.h[c] = q.E + q.P/q.Rho + 0.5*(q.U*q.U+q.V*q.V)
}

// faceLams fills the interior-face dissipation bounds of a line of n cells
// from the pencil states and face normals: λ_f = max of the two straddling
// cells' |u·n| + a, times the face area.
//
//cataero:hotpath
func (w *implicitLineWS) faceLams(nrm []float64, n int) {
	for f := 1; f < n; f++ {
		nx, ny, area := nrm[3*f], nrm[3*f+1], nrm[3*f+2]
		lm := math.Abs(w.u[f-1]*nx+w.v[f-1]*ny) + w.a[f-1]
		lp := math.Abs(w.u[f]*nx+w.v[f]*ny) + w.a[f]
		w.lam[f] = math.Max(lm, lp) * area
	}
}

// solveLineJ assembles and solves the block-tridiagonal system of
// wall-normal line i and applies the update, falling back to a one-stage
// explicit update at the explicit CFL when the line solve diverges
// (singular system, or an update that leaves the physical state space). It
// also accumulates the chunk's share of the step-entry density residual.
//
//cataero:hotpath
func (st *implicitStepper) solveLineJ(i int, w *implicitLineWS) {
	s := st.s
	nj := s.nj
	st.assembleLineJ(i, w)
	st.solveApply(i*nj, 1, nj, w)
	met := s.met
	for j := 0; j < nj; j++ {
		k := i*nj + j
		r := s.res[k][0] / met.Vol[k]
		w.sum += r * r
	}
}

// solveLineI assembles and solves the block-tridiagonal system of
// streamwise line j (the adi pass) and applies the update, with the same
// explicit fallback as the wall-normal pass.
//
//cataero:hotpath
func (st *implicitStepper) solveLineI(j int, w *implicitLineWS) {
	s := st.s
	st.assembleLineI(j, w)
	st.solveApply(j, s.nj, s.ni, w)
}

// solveApply factors the assembled line system through the fused
// equilibrate+factor path, validates the solved increments and applies them
// to the n cells at base, base+stride, ... — or falls back to the explicit
// stage when the solve diverges.
//
//cataero:hotpath
func (st *implicitStepper) solveApply(base, stride, n int, w *implicitLineWS) {
	s := st.s
	ok := w.bt.SolveFlatScaled(w.A, w.B, w.C, w.D, n, st.rat[:], st.scl[:]) == nil
	if ok {
		for c := 0; c < n; c++ {
			for r := 0; r < 4; r++ {
				w.D[c*4+r] *= st.scl[r]
			}
		}
		ok = st.lineUpdateValid(base, stride, n, w)
	}
	if ok {
		for c := 0; c < n; c++ {
			k := base + c*stride
			for r := 0; r < 4; r++ {
				s.U[k][r] += w.D[c*4+r]
			}
		}
	} else {
		st.fallbackLine(base, stride, n)
		w.fell++
	}
}

// assembleLineJ fills the workspace with wall-normal line i's
// block-tridiagonal system (V/Δt I + ∂res/∂U)ΔU = −res: the line's cells
// are gathered into the SoA pencil, the j-face Jacobian planes are filled
// batched, the i-direction is folded into the diagonal by spectral radius,
// and the wall/outer boundary linearizations close the line.
//
//cataero:hotpath
func (st *implicitStepper) assembleLineJ(i int, w *implicitLineWS) {
	s := st.s
	nj := s.nj
	met := s.met
	base := i * nj
	// Gather pass: pencil states, diagonal blocks (V/Δt plus the i-face
	// spectral radii, point-implicit) and the RHS. A and C need no zeroing
	// — every interior off-diagonal block is assigned exactly once by
	// interiorFaces and the boundary blocks are ignored by the solver.
	for j := 0; j < nj; j++ {
		k := base + j
		q := s.prim[k]
		w.gatherCell(j, q)
		fw := 3 * (i*nj + j)
		fe := 3 * ((i+1)*nj + j)
		lamW := (math.Abs(q.U*met.FaceIN[fw]+q.V*met.FaceIN[fw+1]) + q.A) * met.FaceIN[fw+2]
		lamE := (math.Abs(q.U*met.FaceIN[fe]+q.V*met.FaceIN[fe+1]) + q.A) * met.FaceIN[fe+2]
		setDiagBlock(w.B[j*16:j*16+16:j*16+16], met.Vol[k]/s.dt[k]+0.5*(lamW+lamE))
		r := s.res[k]
		w.D[j*4], w.D[j*4+1], w.D[j*4+2], w.D[j*4+3] = -r[0], -r[1], -r[2], -r[3]
	}
	nrm := met.FaceJN[3*i*(nj+1) : 3*(i+1)*(nj+1)]
	jacPlanes(w.jlo, w.jhi, w.u, w.v, w.g1, w.h, nrm, nj)
	w.faceLams(nrm, nj)
	if s.Opts.Viscous {
		for f := 1; f < nj; f++ {
			w.visc[f] = 0
			if dn := met.JDist[i*(nj+1)+f]; dn > 0 && nrm[3*f+2] > 0 {
				m, p := s.prim[base+f-1], s.prim[base+f]
				w.visc[f] = s.Opts.Mu(0.5*(m.T+p.T)) * nrm[3*f+2] / (dn * 0.5 * (m.Rho + p.Rho))
			}
		}
	} else {
		for f := 1; f < nj; f++ {
			w.visc[f] = 0
		}
	}
	st.interiorFaces(w, nj)
	// Wall face f=0: the flux is Flux(mirror(q), q). Linearize both
	// arguments — the ghost through the reflection matrix — so the
	// convective Jacobian block cancels against the f=1 face's instead of
	// leaving a large uncancelled (non-normal) block on the wall row.
	if nx, ny, area := nrm[0], nrm[1], nrm[2]; area > 0 {
		q := s.prim[base]
		lam := (math.Abs(q.U*nx+q.V*ny) + q.A) * area
		B0 := w.B[0:16]
		// res[0] -= F_w, so subtract dF_w/dU0 =
		// ½(S·A(g)+λI)·M + ½(S·A(q)−λI) with g = mirror(q).
		jacN(w.jm[:], mirror(q, nx, ny), nx, ny, area)
		mirrorCols(w.jm[:], nx, ny)
		addScaled(B0, w.jm[:], -0.5)
		jacN(w.jp[:], q, nx, ny, area)
		addScaled(B0, w.jp[:], -0.5)
		// −½λM − (−½λI): M has unit spectral radius, fold both into a
		// single dissipation bound.
		addScaledIdent(B0, lam)
		if s.Opts.Viscous {
			mu := s.Opts.Mu(0.5 * (q.T + s.Opts.TWall))
			addScaledIdent(B0, mu*area/(met.WallHalf[i]*q.Rho))
		}
	}
	// Outer boundary f=nj: the flux is Flux(q_in, q_inf); the freestream
	// argument is constant, so only the interior-side upwind Jacobian
	// ½(S·A+λI) enters — which cancels the f=nj−1 face's −½S·A block on
	// the outer row.
	if nx, ny, area := nrm[3*nj], nrm[3*nj+1], nrm[3*nj+2]; area > 0 {
		q := s.prim[base+nj-1]
		lam := (math.Abs(q.U*nx+q.V*ny) + q.A) * area
		Bn := w.B[(nj-1)*16 : nj*16]
		jacN(w.jm[:], q, nx, ny, area)
		addScaled(Bn, w.jm[:], 0.5)
		addScaledIdent(Bn, 0.5*lam)
	}
}

// assembleLineI fills the workspace with streamwise line j's
// block-tridiagonal system: the i-face fluxes are linearized to first order
// (batched, like the wall-normal pass) and the j-direction — including the
// wall-normal viscous couplings, the dominant stiffness near the wall — is
// folded into the diagonal by spectral radius. The boundary linearizations
// are the streamwise ones: symmetry mirror at i=0 (the stagnation line) and
// zero-gradient outflow at i=ni, whose exit flux Flux(q, q) has the exact
// derivative S·A(q).
//
//cataero:hotpath
func (st *implicitStepper) assembleLineI(j int, w *implicitLineWS) {
	s := st.s
	ni, nj := s.ni, s.nj
	met := s.met
	viscous := s.Opts.Viscous
	for i := 0; i < ni; i++ {
		k := i*nj + j
		q := s.prim[k]
		w.gatherCell(i, q)
		// Face normals are strided along an i-line; gather them so the
		// batched fills below run on contiguous triplets.
		fw := 3 * (i*nj + j)
		w.nrm[3*i], w.nrm[3*i+1], w.nrm[3*i+2] = met.FaceIN[fw], met.FaceIN[fw+1], met.FaceIN[fw+2]
		fs := 3 * (i*(nj+1) + j)
		fn := fs + 3
		lamS := (math.Abs(q.U*met.FaceJN[fs]+q.V*met.FaceJN[fs+1]) + q.A) * met.FaceJN[fs+2]
		lamN := (math.Abs(q.U*met.FaceJN[fn]+q.V*met.FaceJN[fn+1]) + q.A) * met.FaceJN[fn+2]
		diag := met.Vol[k]/s.dt[k] + 0.5*(lamS+lamN)
		if viscous {
			// Fold the wall-normal viscous couplings into the diagonal:
			// they are what makes near-wall cells stiff, and the j-line
			// pass carries them implicitly — leaving them out here would
			// let the streamwise solve overstep the boundary layer.
			if areaS := met.FaceJN[fs+2]; areaS > 0 {
				if j == 0 {
					diag += s.Opts.Mu(0.5*(q.T+s.Opts.TWall)) * areaS / (met.WallHalf[i] * q.Rho)
				} else if dn := met.JDist[i*(nj+1)+j]; dn > 0 {
					m := s.prim[k-1]
					diag += s.Opts.Mu(0.5*(m.T+q.T)) * areaS / (dn * 0.5 * (m.Rho + q.Rho))
				}
			}
			if j < nj-1 {
				if dn, areaN := met.JDist[i*(nj+1)+j+1], met.FaceJN[fn+2]; dn > 0 && areaN > 0 {
					p := s.prim[k+1]
					diag += s.Opts.Mu(0.5*(q.T+p.T)) * areaN / (dn * 0.5 * (q.Rho + p.Rho))
				}
			}
		}
		setDiagBlock(w.B[i*16:i*16+16:i*16+16], diag)
		r := s.res[k]
		w.D[i*4], w.D[i*4+1], w.D[i*4+2], w.D[i*4+3] = -r[0], -r[1], -r[2], -r[3]
	}
	fe := 3 * (ni*nj + j)
	w.nrm[3*ni], w.nrm[3*ni+1], w.nrm[3*ni+2] = met.FaceIN[fe], met.FaceIN[fe+1], met.FaceIN[fe+2]
	jacPlanes(w.jlo, w.jhi, w.u, w.v, w.g1, w.h, w.nrm, ni)
	w.faceLams(w.nrm, ni)
	for f := 1; f < ni; f++ {
		// No streamwise viscous coupling in the thin-layer model.
		w.visc[f] = 0
	}
	st.interiorFaces(w, ni)
	// Inflow face i=0: the symmetry plane (stagnation line). The flux is
	// Flux(mirror(q), q) — the same mirror linearization as the wall, minus
	// the conduction term (no wall here).
	if nx, ny, area := w.nrm[0], w.nrm[1], w.nrm[2]; area > 0 {
		q := s.prim[j]
		lam := (math.Abs(q.U*nx+q.V*ny) + q.A) * area
		B0 := w.B[0:16]
		jacN(w.jm[:], mirror(q, nx, ny), nx, ny, area)
		mirrorCols(w.jm[:], nx, ny)
		addScaled(B0, w.jm[:], -0.5)
		jacN(w.jp[:], q, nx, ny, area)
		addScaled(B0, w.jp[:], -0.5)
		addScaledIdent(B0, lam)
	}
	// Outflow face i=ni: zero-gradient ghost, flux Flux(q, q) = S·F(q).
	// Both upwind halves see the same state, so the dissipation cancels and
	// the derivative is exactly the full Jacobian S·A(q) — at the (mostly
	// supersonic) exit its eigenvalues are positive and strengthen the
	// last diagonal block.
	if nx, ny, area := w.nrm[3*ni], w.nrm[3*ni+1], w.nrm[3*ni+2]; area > 0 {
		q := s.prim[(ni-1)*nj+j]
		Bn := w.B[(ni-1)*16 : ni*16]
		jacN(w.jm[:], q, nx, ny, area)
		addScaled(Bn, w.jm[:], 1)
	}
}

// setDiagBlock writes d·I over the 4×4 block at dst (all 16 entries).
//
//cataero:hotpath
func setDiagBlock(dst []float64, d float64) {
	dst[0], dst[1], dst[2], dst[3] = d, 0, 0, 0
	dst[4], dst[5], dst[6], dst[7] = 0, d, 0, 0
	dst[8], dst[9], dst[10], dst[11] = 0, 0, d, 0
	dst[12], dst[13], dst[14], dst[15] = 0, 0, 0, d
}

// lineUpdateValid reports whether applying the line's solved increments
// keeps every cell physical (see Solver.physicalState); the line's cells
// sit at base, base+stride, ....
func (st *implicitStepper) lineUpdateValid(base, stride, n int, w *implicitLineWS) bool {
	s := st.s
	for c := 0; c < n; c++ {
		k := base + c*stride
		var cand Cons
		for r := 0; r < 4; r++ {
			cand[r] = s.U[k][r] + w.D[c*4+r]
		}
		if !s.physicalState(cand) {
			return false
		}
	}
	return true
}

// fallbackLine applies a one-stage explicit update to the line's cells at
// the explicit CFL (the local time steps were built at the ramped CFL, so
// they are rescaled by Opts.CFL/cfl) — the diverging-line escape hatch.
func (st *implicitStepper) fallbackLine(base, stride, n int) {
	s := st.s
	scale := s.Opts.CFL / st.cfl
	met := s.met
	for c := 0; c < n; c++ {
		k := base + c*stride
		dtv := scale * s.dt[k] / met.Vol[k]
		for r := 0; r < 4; r++ {
			s.U[k][r] -= dtv * s.res[k][r]
		}
	}
}
