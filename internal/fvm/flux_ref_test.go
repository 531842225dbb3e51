package fvm

import "math"

// The scalar reference forms of the flux kernels. Production runs only the
// batched BatchFlux sweeps; these one-face forms are written plainly from
// the physics, and TestBatchFluxMatchesScalar holds every kernel's
// BatchFlux to its Flux to within a few ulp. The kernel types document the
// physics; each Flux here mirrors its BatchFlux expression for expression.

// fluxOracle is the scalar reference form of a flux kernel: the area-scaled
// numerical flux through one face with unit normal (nx, ny) and the given
// area, from left state L to right state R.
type fluxOracle interface {
	Flux(L, R Prim, nx, ny, area float64) Cons
}

// faceFlux runs kernel k's production BatchFlux over a one-face pencil, so
// a test of a kernel contract checks the code the solver runs.
func faceFlux(k BatchFluxKernel, L, R Prim, nx, ny, area float64) Cons {
	fl, fr := newFaceStates(1), newFaceStates(1)
	fl.setPrim(0, L)
	fr.setPrim(0, R)
	var f Cons
	k.BatchFlux(f[:], &fl, &fr, []float64{nx, ny, area}, 1)
	return f
}

// prim returns face f of the pencil as a Prim value — the bridge back to
// the scalar kernel API, used by the equivalence tests.
func (fs *FaceStates) prim(f int) Prim {
	return Prim{Rho: fs.Rho[f], U: fs.U[f], V: fs.V[f], P: fs.P[f], T: fs.T[f], A: fs.A[f], E: fs.E[f]}
}

func physFlux(q Prim, nx, ny float64) Cons {
	un := q.U*nx + q.V*ny
	H := q.E + q.P/q.Rho + 0.5*(q.U*q.U+q.V*q.V)
	return Cons{
		q.Rho * un,
		q.Rho*q.U*un + q.P*nx,
		q.Rho*q.V*un + q.P*ny,
		q.Rho * un * H,
	}
}

func consOf(q Prim) Cons {
	return Cons{
		q.Rho,
		q.Rho * q.U,
		q.Rho * q.V,
		q.Rho * (q.E + 0.5*(q.U*q.U+q.V*q.V)),
	}
}

// Flux is the scalar HLLE reference (see hlleKernel).
func (hlleKernel) Flux(L, R Prim, nx, ny, area float64) Cons {
	unL := L.U*nx + L.V*ny
	unR := R.U*nx + R.V*ny
	sl := math.Min(unL-L.A, unR-R.A)
	sr := math.Max(unL+L.A, unR+R.A)
	var f Cons
	switch {
	case sl >= 0:
		f = physFlux(L, nx, ny)
	case sr <= 0:
		f = physFlux(R, nx, ny)
	default:
		fL := physFlux(L, nx, ny)
		fR := physFlux(R, nx, ny)
		uL := consOf(L)
		uR := consOf(R)
		inv := 1 / (sr - sl)
		for k := 0; k < 4; k++ {
			f[k] = (sr*fL[k] - sl*fR[k] + sl*sr*(uR[k]-uL[k])) * inv
		}
	}
	for k := 0; k < 4; k++ {
		f[k] *= area
	}
	return f
}

// Flux is the scalar HLLE-EF reference (see hlleEFKernel).
func (hlleEFKernel) Flux(L, R Prim, nx, ny, area float64) Cons {
	unL := L.U*nx + L.V*ny
	unR := R.U*nx + R.V*ny
	sl := math.Min(unL-L.A, unR-R.A)
	sr := math.Max(unL+L.A, unR+R.A)
	d := entropyFixFrac * 0.5 * (L.A + R.A)
	if sl > -d {
		sl = -d
	}
	if sr < d {
		sr = d
	}
	fL := physFlux(L, nx, ny)
	fR := physFlux(R, nx, ny)
	uL := consOf(L)
	uR := consOf(R)
	inv := 1 / (sr - sl)
	var f Cons
	for k := 0; k < 4; k++ {
		f[k] = (sr*fL[k] - sl*fR[k] + sl*sr*(uR[k]-uL[k])) * inv
	}
	for k := 0; k < 4; k++ {
		f[k] *= area
	}
	return f
}

// Flux is the scalar HLLC reference (see hllcKernel).
func (hllcKernel) Flux(L, R Prim, nx, ny, area float64) Cons {
	unL := L.U*nx + L.V*ny
	unR := R.U*nx + R.V*ny
	sl := math.Min(unL-L.A, unR-R.A)
	sr := math.Max(unL+L.A, unR+R.A)
	var f Cons
	switch {
	case sl >= 0:
		f = physFlux(L, nx, ny)
	case sr <= 0:
		f = physFlux(R, nx, ny)
	default:
		den := L.Rho*(sl-unL) - R.Rho*(sr-unR)
		if math.Abs(den) < 1e-300 {
			return hlleKernel{}.Flux(L, R, nx, ny, area)
		}
		sm := (R.P - L.P + L.Rho*unL*(sl-unL) - R.Rho*unR*(sr-unR)) / den
		if sm >= 0 {
			fL := physFlux(L, nx, ny)
			uL := consOf(L)
			us := hllcStar(L, unL, sl, sm, nx, ny)
			for k := 0; k < 4; k++ {
				f[k] = fL[k] + sl*(us[k]-uL[k])
			}
		} else {
			fR := physFlux(R, nx, ny)
			uR := consOf(R)
			us := hllcStar(R, unR, sr, sm, nx, ny)
			for k := 0; k < 4; k++ {
				f[k] = fR[k] + sr*(us[k]-uR[k])
			}
		}
	}
	for k := 0; k < 4; k++ {
		f[k] *= area
	}
	return f
}

// hllcStar is the HLLC star-region conserved state on side q between wave sq
// and the contact sm, already folded with the q.Rho(sq-un)/(sq-sm) factor.
func hllcStar(q Prim, un, sq, sm, nx, ny float64) Cons {
	fac := q.Rho * (sq - un) / (sq - sm)
	et := q.E + 0.5*(q.U*q.U+q.V*q.V)
	eStar := et + (sm-un)*(sm+q.P/(q.Rho*(sq-un)))
	return Cons{
		fac,
		fac * (q.U + (sm-un)*nx),
		fac * (q.V + (sm-un)*ny),
		fac * eStar,
	}
}

// Flux is the scalar AUSM+ reference (see ausmKernel).
func (ausmKernel) Flux(L, R Prim, nx, ny, area float64) Cons {
	a := 0.5 * (L.A + R.A)
	if a <= 0 {
		return Cons{}
	}
	mL := (L.U*nx + L.V*ny) / a
	mR := (R.U*nx + R.V*ny) / a
	const alpha = 3.0 / 16.0
	const beta = 1.0 / 8.0
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
	p12 := pPlus*L.P + pMinus*R.P
	// Upwind the convected vector (rho, rho u, rho v, rho H) by m12.
	q := L
	if m12 < 0 {
		q = R
	}
	H := q.E + q.P/q.Rho + 0.5*(q.U*q.U+q.V*q.V)
	mass := a * m12 * q.Rho
	f := Cons{
		mass,
		mass*q.U + p12*nx,
		mass*q.V + p12*ny,
		mass * H,
	}
	for k := 0; k < 4; k++ {
		f[k] *= area
	}
	return f
}

// Flux is the scalar AUSM+up reference (see ausmUpKernel).
func (ausmUpKernel) Flux(L, R Prim, nx, ny, area float64) Cons {
	a := 0.5 * (L.A + R.A)
	if a <= 0 {
		return Cons{}
	}
	unL := L.U*nx + L.V*ny
	unR := R.U*nx + R.V*ny
	mL := unL / a
	mR := unR / a
	const alpha = 3.0 / 16.0
	const beta = 1.0 / 8.0
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
	rhoBar := 0.5 * (L.Rho + R.Rho)
	// Pressure diffusion in the interface Mach number, clamped to a twentieth
	// of a Mach unit: the correction targets O(M) pressure odd-even
	// decoupling, but in a raw startup transient (near-vacuum cell against a
	// fresh shock) the p-jump over rho*a^2 can reach thousands and the
	// unclamped term then drives an unphysical mass flux — enough to reverse
	// the interface Mach near a stagnation point — that diverges the solve.
	// Converged
	// low-Mach fields sit far inside the clamp.
	mp := 0.0
	if w := 1 - ausmUpSigma*mBar2; w > 0 {
		mp = -(ausmUpKp / fa) * w * (R.P - L.P) / (rhoBar * a * a)
		if mp > 0.05 {
			mp = 0.05
		} else if mp < -0.05 {
			mp = -0.05
		}
	}
	m12 := mPlus + mMinus + mp
	// Velocity diffusion in the interface pressure.
	pu := -ausmUpKu * pPlus * pMinus * (L.Rho + R.Rho) * (fa * a) * (unR - unL)
	p12 := pPlus*L.P + pMinus*R.P + pu
	// Upwind the convected vector (rho, rho u, rho v, rho H) by m12.
	q := L
	if m12 < 0 {
		q = R
	}
	H := q.E + q.P/q.Rho + 0.5*(q.U*q.U+q.V*q.V)
	mass := a * m12 * q.Rho
	f := Cons{
		mass,
		mass*q.U + p12*nx,
		mass*q.V + p12*ny,
		mass * H,
	}
	for k := 0; k < 4; k++ {
		f[k] *= area
	}
	return f
}
