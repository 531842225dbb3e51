package fvm

import (
	"fmt"
	"math"
	"sort"
)

// FluxKernel computes the numerical flux through a face with unit normal
// (nx, ny) and the given area, from left state L to right state R, scaled
// by the face area. Taking the normal pre-split keeps renormalization out
// of the per-face hot loop (the metrics cache stores unit normals).
// Kernels must be conservative and symmetric:
// Flux(L, R, n, area) == -Flux(R, L, -n, area).
// The kernels are the rows of fluxTable, selected by name via
// Options.Flux.
type FluxKernel interface {
	// Name is the kernel's fluxTable key (e.g. "hlle").
	Name() string
	// Flux returns the area-scaled numerical flux through the face.
	Flux(L, R Prim, nx, ny, area float64) Cons
}

// DefaultFlux is the kernel used when Options.Flux is empty.
const DefaultFlux = FluxHLLE

// fluxTable maps the Options.Flux names to their kernels. Its element type
// makes a batched form part of every kernel.
var fluxTable = map[string]BatchFluxKernel{
	FluxHLLE:       hlleKernel{},
	FluxHLLEEF:     hlleEFKernel{},
	FluxHLLC:       hllcKernel{},
	FluxAUSMPlus:   ausmKernel{},
	FluxAUSMPlusUp: ausmUpKernel{},
}

// FluxKernelFor resolves a kernel by name; the empty name resolves to
// DefaultFlux.
func FluxKernelFor(name string) (BatchFluxKernel, error) {
	if name == "" {
		name = DefaultFlux
	}
	k, ok := fluxTable[name]
	if !ok {
		return nil, fmt.Errorf("fvm: no flux kernel %q (have %v)", name, FluxKernels())
	}
	return k, nil
}

// FluxKernels returns the kernel names in ascending order.
func FluxKernels() []string {
	out := make([]string, 0, len(fluxTable))
	for n := range fluxTable {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// kernelFluxVec applies a kernel to a face given as a raw area vector
// (sx, sy) — the convenience form used by tests and one-off callers; the
// solver hot loops use the cached unit normals instead.
func kernelFluxVec(k FluxKernel, L, R Prim, sx, sy float64) Cons {
	area := math.Hypot(sx, sy)
	if area == 0 {
		return Cons{}
	}
	return k.Flux(L, R, sx/area, sy/area, area)
}

// --- HLLE ---

type hlleKernel struct{}

func (hlleKernel) Name() string { return FluxHLLE }

// Flux is the HLLE flux: pure upwind outside the estimated wave fan and
// the integral average of the Riemann fan inside it.
//
//cataero:hotpath
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

// hlle computes the HLLE flux through a face with area vector (sx, sy) from
// left state L to right state R.
func hlle(L, R Prim, sx, sy float64) Cons {
	return kernelFluxVec(hlleKernel{}, L, R, sx, sy)
}

// --- HLLE with entropy fix ---

type hlleEFKernel struct{}

func (hlleEFKernel) Name() string { return FluxHLLEEF }

// entropyFixFrac scales the hlle-ef dissipation floor: the left and right
// wave-speed estimates are pushed at least entropyFixFrac times the mean
// face sound speed away from zero. 0.1 is the customary Harten-style
// choice — wide enough to break an expansion shock, narrow enough to leave
// captured shocks crisp.
const entropyFixFrac = 0.1

// Flux is the HLLE flux with an entropy fix: the wave-speed estimates are
// floored away from zero by a fraction of the mean sound speed, so the
// scheme never collapses onto the pure-upwind branch at a sonic point.
// Plain HLLE can lock in an entropy-violating expansion shock exactly
// there (the left and right fluxes agree across the jump and the
// dissipation vanishes); the floor keeps the fan averaged and smears the
// jump into the physical rarefaction at the cost of O(delta) extra
// dissipation everywhere.
//
//cataero:hotpath
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

// --- HLLC ---

type hllcKernel struct{}

func (hllcKernel) Name() string { return FluxHLLC }

// Flux is the HLLC flux (Toro's restoration of the contact wave missing
// from HLLE), written against wave-speed estimates that only use the local
// sound speeds so it stays valid for a general equation of state.
//
//cataero:hotpath
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

// --- AUSM+ ---

type ausmKernel struct{}

// hllcStar is the HLLC star-region conserved state on side q between wave sq
// and the contact sm, already folded with the q.Rho(sq-un)/(sq-sm) factor.
//
//cataero:hotpath
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

func (ausmKernel) Name() string { return FluxAUSMPlus }

// Flux is Liou's AUSM+ flux: Mach-number and pressure splittings about a
// common interface sound speed, with the convected vector upwinded by the
// interface Mach number. The splittings satisfy M±(M) = -M∓(-M) and
// P±(M) = P∓(-M), which gives the required symmetry under (L,R,n) ->
// (R,L,-n).
//
//cataero:hotpath
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

// --- AUSM+up ---

type ausmUpKernel struct{}

func (ausmUpKernel) Name() string { return FluxAUSMPlusUp }

// AUSM+up low-Mach coefficients (Liou 2006): Kp and Ku weight the pressure-
// and velocity-diffusion terms, sigma bounds the pressure term's Mach
// window, and ausmUpMco is the cutoff Mach number that floors the scaling
// function fa so both terms stay active as the local Mach number vanishes.
const (
	ausmUpKp    = 0.25
	ausmUpKu    = 0.75
	ausmUpSigma = 1.0
	ausmUpMco   = 0.1
)

// Flux is Liou's AUSM+up flux: the AUSM+ Mach and pressure splittings
// augmented with a pressure-diffusion term in the interface Mach number and
// a velocity-diffusion term in the interface pressure. Plain AUSM+ loses
// pressure-velocity coupling as M -> 0 (the pressure flux decouples and
// checkerboards in near-incompressible regions — boundary layers, the
// stagnation region ahead of a blunt body); the +up terms restore it with
// O(M) diffusion scaled by fa so they vanish at transonic and supersonic
// Mach numbers and leave captured shocks as crisp as AUSM+. Both terms are
// antisymmetric under (L,R,n) -> (R,L,-n) and vanish at L == R, so the
// kernel keeps the FluxKernel symmetry and consistency contracts.
//
//cataero:hotpath
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
