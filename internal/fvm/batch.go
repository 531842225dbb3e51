package fvm

import "math"

// FaceStates is a structure-of-arrays pencil of face states: one slice per
// primitive component, indexed by face. The flux sweeps fill a pencil per
// grid line from the AoS primitive cache (reconstructed states on interior
// faces, ghost states on boundary faces) and hand it to BatchFlux, so the
// kernel inner loop streams contiguous float64 slices instead of chasing
// Prim structs through an interface call per face.
type FaceStates struct {
	Rho, U, V, P, T, A, E []float64
}

// newFaceStates allocates a pencil holding n faces.
func newFaceStates(n int) FaceStates {
	return FaceStates{
		Rho: make([]float64, n),
		U:   make([]float64, n),
		V:   make([]float64, n),
		P:   make([]float64, n),
		T:   make([]float64, n),
		A:   make([]float64, n),
		E:   make([]float64, n),
	}
}

// setPrim stores q as face f of the pencil.
func (fs *FaceStates) setPrim(f int, q Prim) {
	fs.Rho[f] = q.Rho
	fs.U[f] = q.U
	fs.V[f] = q.V
	fs.P[f] = q.P
	fs.T[f] = q.T
	fs.A[f] = q.A
	fs.E[f] = q.E
}

// BatchFluxKernel is a numerical flux kernel, the element type of
// fluxTable, selected by name via Options.Flux. BatchFlux computes the
// area-scaled fluxes of n faces, from left state L to right state R, in
// one straight-line loop with no per-face interface dispatch: dst is
// face-major (components dst[4*f..4*f+3]), L and R hold the left/right
// states of face f at slice index f, and nrm packs (nx, ny, area) triplets
// of unit normal and area — exactly the layout of the cached grid.Metrics
// face arrays, so metric subslices pass through without a gather or a
// renormalization. It writes every face flux of a solve, interior and
// boundary alike. Kernels must be consistent (L == R gives the physical
// flux), conservative and symmetric (the flux of (L, R, n) is minus that of
// (R, L, -n)), and must give exact zeros for a degenerate face, which the
// metrics store with a zero normal and a zero area. The package tests keep
// a scalar reference form of every kernel and hold BatchFlux to it
// (TestBatchFluxMatchesScalar).
type BatchFluxKernel interface {
	// Name is the kernel's fluxTable key (e.g. "hlle").
	Name() string
	BatchFlux(dst []float64, L, R *FaceStates, nrm []float64, n int)
}

// BatchFlux is the HLLE sweep, with the physical fluxes and conserved
// states expanded into scalars, so each face stays register-resident and
// the loop carries no interface calls.
//
//cataero:hotpath
func (hlleKernel) BatchFlux(dst []float64, L, R *FaceStates, nrm []float64, n int) {
	for f := 0; f < n; f++ {
		nx, ny, area := nrm[3*f], nrm[3*f+1], nrm[3*f+2]
		lRho, lU, lV, lP, lA, lE := L.Rho[f], L.U[f], L.V[f], L.P[f], L.A[f], L.E[f]
		rRho, rU, rV, rP, rA, rE := R.Rho[f], R.U[f], R.V[f], R.P[f], R.A[f], R.E[f]
		unL := lU*nx + lV*ny
		unR := rU*nx + rV*ny
		sl := math.Min(unL-lA, unR-rA)
		sr := math.Max(unL+lA, unR+rA)
		var f0, f1, f2, f3 float64
		switch {
		case sl >= 0:
			H := lE + lP/lRho + 0.5*(lU*lU+lV*lV)
			f0 = lRho * unL
			f1 = lRho*lU*unL + lP*nx
			f2 = lRho*lV*unL + lP*ny
			f3 = lRho * unL * H
		case sr <= 0:
			H := rE + rP/rRho + 0.5*(rU*rU+rV*rV)
			f0 = rRho * unR
			f1 = rRho*rU*unR + rP*nx
			f2 = rRho*rV*unR + rP*ny
			f3 = rRho * unR * H
		default:
			f0, f1, f2, f3 = hllMid(lRho, lU, lV, lP, lE, rRho, rU, rV, rP, rE, unL, unR, sl, sr, nx, ny)
		}
		k := 4 * f
		dst[k] = f0 * area
		dst[k+1] = f1 * area
		dst[k+2] = f2 * area
		dst[k+3] = f3 * area
	}
}

// hllMid is the HLL middle-state flux on expanded scalars, shared by the
// HLLE/HLLE-EF loops and the HLLC degenerate fallback.
//
//cataero:hotpath
func hllMid(lRho, lU, lV, lP, lE, rRho, rU, rV, rP, rE, unL, unR, sl, sr, nx, ny float64) (f0, f1, f2, f3 float64) {
	HL := lE + lP/lRho + 0.5*(lU*lU+lV*lV)
	HR := rE + rP/rRho + 0.5*(rU*rU+rV*rV)
	fL0 := lRho * unL
	fL1 := lRho*lU*unL + lP*nx
	fL2 := lRho*lV*unL + lP*ny
	fL3 := lRho * unL * HL
	fR0 := rRho * unR
	fR1 := rRho*rU*unR + rP*nx
	fR2 := rRho*rV*unR + rP*ny
	fR3 := rRho * unR * HR
	uL0 := lRho
	uL1 := lRho * lU
	uL2 := lRho * lV
	uL3 := lRho * (lE + 0.5*(lU*lU+lV*lV))
	uR0 := rRho
	uR1 := rRho * rU
	uR2 := rRho * rV
	uR3 := rRho * (rE + 0.5*(rU*rU+rV*rV))
	inv := 1 / (sr - sl)
	f0 = (sr*fL0 - sl*fR0 + sl*sr*(uR0-uL0)) * inv
	f1 = (sr*fL1 - sl*fR1 + sl*sr*(uR1-uL1)) * inv
	f2 = (sr*fL2 - sl*fR2 + sl*sr*(uR2-uL2)) * inv
	f3 = (sr*fL3 - sl*fR3 + sl*sr*(uR3-uL3)) * inv
	return f0, f1, f2, f3
}

// BatchFlux is the HLLE-EF sweep: HLLE wave speeds pushed past the
// dissipation floor, always through the HLL average.
//
//cataero:hotpath
func (hlleEFKernel) BatchFlux(dst []float64, L, R *FaceStates, nrm []float64, n int) {
	for f := 0; f < n; f++ {
		nx, ny, area := nrm[3*f], nrm[3*f+1], nrm[3*f+2]
		lRho, lU, lV, lP, lA, lE := L.Rho[f], L.U[f], L.V[f], L.P[f], L.A[f], L.E[f]
		rRho, rU, rV, rP, rA, rE := R.Rho[f], R.U[f], R.V[f], R.P[f], R.A[f], R.E[f]
		unL := lU*nx + lV*ny
		unR := rU*nx + rV*ny
		sl := math.Min(unL-lA, unR-rA)
		sr := math.Max(unL+lA, unR+rA)
		d := entropyFixFrac * 0.5 * (lA + rA)
		if sl > -d {
			sl = -d
		}
		if sr < d {
			sr = d
		}
		f0, f1, f2, f3 := hllMid(lRho, lU, lV, lP, lE, rRho, rU, rV, rP, rE, unL, unR, sl, sr, nx, ny)
		k := 4 * f
		dst[k] = f0 * area
		dst[k+1] = f1 * area
		dst[k+2] = f2 * area
		dst[k+3] = f3 * area
	}
}

// BatchFlux is the HLLC sweep: pure upwind outside the wave fan, the left
// or right star state inside it, and the HLL average on a degenerate
// contact.
//
//cataero:hotpath
func (hllcKernel) BatchFlux(dst []float64, L, R *FaceStates, nrm []float64, n int) {
	for f := 0; f < n; f++ {
		nx, ny, area := nrm[3*f], nrm[3*f+1], nrm[3*f+2]
		lRho, lU, lV, lP, lA, lE := L.Rho[f], L.U[f], L.V[f], L.P[f], L.A[f], L.E[f]
		rRho, rU, rV, rP, rA, rE := R.Rho[f], R.U[f], R.V[f], R.P[f], R.A[f], R.E[f]
		unL := lU*nx + lV*ny
		unR := rU*nx + rV*ny
		sl := math.Min(unL-lA, unR-rA)
		sr := math.Max(unL+lA, unR+rA)
		var f0, f1, f2, f3 float64
		switch {
		case sl >= 0:
			H := lE + lP/lRho + 0.5*(lU*lU+lV*lV)
			f0 = lRho * unL
			f1 = lRho*lU*unL + lP*nx
			f2 = lRho*lV*unL + lP*ny
			f3 = lRho * unL * H
		case sr <= 0:
			H := rE + rP/rRho + 0.5*(rU*rU+rV*rV)
			f0 = rRho * unR
			f1 = rRho*rU*unR + rP*nx
			f2 = rRho*rV*unR + rP*ny
			f3 = rRho * unR * H
		default:
			den := lRho*(sl-unL) - rRho*(sr-unR)
			if math.Abs(den) < 1e-300 {
				f0, f1, f2, f3 = hllMid(lRho, lU, lV, lP, lE, rRho, rU, rV, rP, rE, unL, unR, sl, sr, nx, ny)
				break
			}
			sm := (rP - lP + lRho*unL*(sl-unL) - rRho*unR*(sr-unR)) / den
			if sm >= 0 {
				H := lE + lP/lRho + 0.5*(lU*lU+lV*lV)
				fL0 := lRho * unL
				fL1 := lRho*lU*unL + lP*nx
				fL2 := lRho*lV*unL + lP*ny
				fL3 := lRho * unL * H
				uL0 := lRho
				uL1 := lRho * lU
				uL2 := lRho * lV
				uL3 := lRho * (lE + 0.5*(lU*lU+lV*lV))
				fac := lRho * (sl - unL) / (sl - sm)
				et := lE + 0.5*(lU*lU+lV*lV)
				eStar := et + (sm-unL)*(sm+lP/(lRho*(sl-unL)))
				f0 = fL0 + sl*(fac-uL0)
				f1 = fL1 + sl*(fac*(lU+(sm-unL)*nx)-uL1)
				f2 = fL2 + sl*(fac*(lV+(sm-unL)*ny)-uL2)
				f3 = fL3 + sl*(fac*eStar-uL3)
			} else {
				H := rE + rP/rRho + 0.5*(rU*rU+rV*rV)
				fR0 := rRho * unR
				fR1 := rRho*rU*unR + rP*nx
				fR2 := rRho*rV*unR + rP*ny
				fR3 := rRho * unR * H
				uR0 := rRho
				uR1 := rRho * rU
				uR2 := rRho * rV
				uR3 := rRho * (rE + 0.5*(rU*rU+rV*rV))
				fac := rRho * (sr - unR) / (sr - sm)
				et := rE + 0.5*(rU*rU+rV*rV)
				eStar := et + (sm-unR)*(sm+rP/(rRho*(sr-unR)))
				f0 = fR0 + sr*(fac-uR0)
				f1 = fR1 + sr*(fac*(rU+(sm-unR)*nx)-uR1)
				f2 = fR2 + sr*(fac*(rV+(sm-unR)*ny)-uR2)
				f3 = fR3 + sr*(fac*eStar-uR3)
			}
		}
		k := 4 * f
		dst[k] = f0 * area
		dst[k+1] = f1 * area
		dst[k+2] = f2 * area
		dst[k+3] = f3 * area
	}
}

// BatchFlux is the AUSM+ sweep: Liou's Mach and pressure splittings on
// expanded scalars.
//
//cataero:hotpath
func (ausmKernel) BatchFlux(dst []float64, L, R *FaceStates, nrm []float64, n int) {
	const alpha = 3.0 / 16.0
	const beta = 1.0 / 8.0
	for f := 0; f < n; f++ {
		nx, ny, area := nrm[3*f], nrm[3*f+1], nrm[3*f+2]
		lRho, lU, lV, lP, lA, lE := L.Rho[f], L.U[f], L.V[f], L.P[f], L.A[f], L.E[f]
		rRho, rU, rV, rP, rA, rE := R.Rho[f], R.U[f], R.V[f], R.P[f], R.A[f], R.E[f]
		k := 4 * f
		a := 0.5 * (lA + rA)
		if a <= 0 {
			dst[k], dst[k+1], dst[k+2], dst[k+3] = 0, 0, 0, 0
			continue
		}
		mL := (lU*nx + lV*ny) / a
		mR := (rU*nx + rV*ny) / a
		var mPlus, pPlus float64
		if math.Abs(mL) >= 1 {
			mPlus = 0.5 * (mL + math.Abs(mL))
			pPlus = mPlus / mL
		} else {
			mPlus = 0.25*(mL+1)*(mL+1) + beta*(mL*mL-1)*(mL*mL-1)
			pPlus = 0.25*(mL+1)*(mL+1)*(2-mL) + alpha*mL*(mL*mL-1)*(mL*mL-1)
		}
		var mMinus, pMinus float64
		if math.Abs(mR) >= 1 {
			mMinus = 0.5 * (mR - math.Abs(mR))
			pMinus = mMinus / mR
		} else {
			mMinus = -0.25*(mR-1)*(mR-1) - beta*(mR*mR-1)*(mR*mR-1)
			pMinus = 0.25*(mR-1)*(mR-1)*(2+mR) - alpha*mR*(mR*mR-1)*(mR*mR-1)
		}
		m12 := mPlus + mMinus
		p12 := pPlus*lP + pMinus*rP
		// Upwind the convected vector (rho, rho u, rho v, rho H) by m12.
		qRho, qU, qV, qP, qE := lRho, lU, lV, lP, lE
		if m12 < 0 {
			qRho, qU, qV, qP, qE = rRho, rU, rV, rP, rE
		}
		H := qE + qP/qRho + 0.5*(qU*qU+qV*qV)
		mass := a * m12 * qRho
		dst[k] = mass * area
		dst[k+1] = (mass*qU + p12*nx) * area
		dst[k+2] = (mass*qV + p12*ny) * area
		dst[k+3] = mass * H * area
	}
}

// BatchFlux is the AUSM+up sweep: the AUSM+ splittings plus the low-Mach
// pressure/velocity diffusion terms on expanded scalars.
//
//cataero:hotpath
func (ausmUpKernel) BatchFlux(dst []float64, L, R *FaceStates, nrm []float64, n int) {
	const alpha = 3.0 / 16.0
	const beta = 1.0 / 8.0
	for f := 0; f < n; f++ {
		nx, ny, area := nrm[3*f], nrm[3*f+1], nrm[3*f+2]
		lRho, lU, lV, lP, lA, lE := L.Rho[f], L.U[f], L.V[f], L.P[f], L.A[f], L.E[f]
		rRho, rU, rV, rP, rA, rE := R.Rho[f], R.U[f], R.V[f], R.P[f], R.A[f], R.E[f]
		k := 4 * f
		a := 0.5 * (lA + rA)
		if a <= 0 {
			dst[k], dst[k+1], dst[k+2], dst[k+3] = 0, 0, 0, 0
			continue
		}
		unL := lU*nx + lV*ny
		unR := rU*nx + rV*ny
		mL := unL / a
		mR := unR / a
		var mPlus, pPlus float64
		if math.Abs(mL) >= 1 {
			mPlus = 0.5 * (mL + math.Abs(mL))
			pPlus = mPlus / mL
		} else {
			mPlus = 0.25*(mL+1)*(mL+1) + beta*(mL*mL-1)*(mL*mL-1)
			pPlus = 0.25*(mL+1)*(mL+1)*(2-mL) + alpha*mL*(mL*mL-1)*(mL*mL-1)
		}
		var mMinus, pMinus float64
		if math.Abs(mR) >= 1 {
			mMinus = 0.5 * (mR - math.Abs(mR))
			pMinus = mMinus / mR
		} else {
			mMinus = -0.25*(mR-1)*(mR-1) - beta*(mR*mR-1)*(mR*mR-1)
			pMinus = 0.25*(mR-1)*(mR-1)*(2+mR) - alpha*mR*(mR*mR-1)*(mR*mR-1)
		}
		// Scaling function fa in [fa(Mco), 1]: the mean Mach number squared,
		// floored at the cutoff, mapped through Mo(2-Mo).
		mBar2 := 0.5 * (mL*mL + mR*mR)
		mo2 := mBar2
		if mo2 < ausmUpMco*ausmUpMco {
			mo2 = ausmUpMco * ausmUpMco
		}
		if mo2 > 1 {
			mo2 = 1
		}
		mo := math.Sqrt(mo2)
		fa := mo * (2 - mo)
		rhoBar := 0.5 * (lRho + rRho)
		// Pressure diffusion in the interface Mach number, clamped to a
		// twentieth of a Mach unit: the correction targets O(M) pressure
		// odd-even decoupling, but in a raw startup transient (near-vacuum
		// cell against a fresh shock) the p-jump over rho*a^2 can reach
		// thousands and the unclamped term then drives an unphysical mass
		// flux — enough to reverse the interface Mach near a stagnation
		// point — that diverges the solve. Converged low-Mach fields sit far
		// inside the clamp.
		mp := 0.0
		if w := 1 - ausmUpSigma*mBar2; w > 0 {
			mp = -(ausmUpKp / fa) * w * (rP - lP) / (rhoBar * a * a)
			if mp > 0.05 {
				mp = 0.05
			} else if mp < -0.05 {
				mp = -0.05
			}
		}
		m12 := mPlus + mMinus + mp
		// Velocity diffusion in the interface pressure.
		pu := -ausmUpKu * pPlus * pMinus * (lRho + rRho) * (fa * a) * (unR - unL)
		p12 := pPlus*lP + pMinus*rP + pu
		qRho, qU, qV, qP, qE := lRho, lU, lV, lP, lE
		if m12 < 0 {
			qRho, qU, qV, qP, qE = rRho, rU, rV, rP, rE
		}
		H := qE + qP/qRho + 0.5*(qU*qU+qV*qV)
		mass := a * m12 * qRho
		dst[k] = mass * area
		dst[k+1] = (mass*qU + p12*nx) * area
		dst[k+2] = (mass*qV + p12*ny) * area
		dst[k+3] = mass * H * area
	}
}
