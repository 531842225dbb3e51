// Package shocktube implements the steady one-dimensional post-shock
// relaxation problem of the paper's Fig. 7/8: a strong normal shock in air
// with translation jumping instantly while vibration and chemistry relax
// downstream, solved with the two-temperature model and finite-rate
// chemistry. This is "approach one" of the paper's NS-code discussion: a
// simple fluid model carrying state-of-the-art real-gas physics.
package shocktube

import (
	"fmt"
	"math"

	"cataero/internal/chem"
	"cataero/internal/numerics"
	"cataero/internal/thermo"
)

// Problem defines the shock-tube case.
type Problem struct {
	Mix  *thermo.Mixture
	Mech *chem.Mechanism
	P1   float64 // upstream pressure, Pa
	T1   float64 // upstream temperature, K
	U1   float64 // shock speed (upstream velocity in shock frame), m/s
	Y1   []float64
	XEnd float64 // integration distance behind the shock, m
	NOut int     // number of output stations (default 200)
}

// Profile is the relaxation-zone solution.
type Profile struct {
	X, T, Tv, P, Rho, U []float64
	Y                   [][]float64 // [station][species]
}

// FrozenVibJump solves the Rankine-Hugoniot jump with chemistry AND
// vibration frozen: only translation and rotation equilibrate across the
// shock front. This is the two-temperature initial condition: T2 is very
// high, Tv2 stays at T1.
func FrozenVibJump(m *thermo.Mixture, y []float64, p1, T1, u1 float64) (rho2, u2, p2, T2 float64, err error) {
	rho1 := m.Density(p1, T1, y)
	mflux := rho1 * u1
	P0 := p1 + rho1*u1*u1
	// Frozen-vibration enthalpy: h = cpTR*T + ev(T1) + eel(T1) + hf.
	cpTR := m.CvTransRot(y) + m.R(y)
	hFroz := m.EVibPool(T1, y) + m.HFormation(y)
	H0 := cpTR*T1 + hFroz + 0.5*u1*u1
	R := m.R(y)
	// Quadratic in u2 (see package docs): a u^2 + b u + c = 0.
	a := mflux*R/(2*cpTR) - mflux
	b := P0
	c := -mflux * R / cpTR * (H0 - hFroz)
	disc := b*b - 4*a*c
	if disc < 0 {
		return 0, 0, 0, 0, fmt.Errorf("shocktube: no real jump solution")
	}
	// Subsonic (small-u) root: with a<0, the '+' root is the small one.
	u2 = (-b + math.Sqrt(disc)) / (2 * a)
	if u2 <= 0 || u2 >= u1 {
		u2 = (-b - math.Sqrt(disc)) / (2 * a)
	}
	if u2 <= 0 || u2 >= u1 {
		return 0, 0, 0, 0, fmt.Errorf("shocktube: jump root out of range: %g", u2)
	}
	rho2 = mflux / u2
	p2 = P0 - mflux*u2
	T2 = (H0 - hFroz - 0.5*u2*u2) / cpTR
	return rho2, u2, p2, T2, nil
}

// Solve integrates the steady relaxation equations behind the shock:
//
//	m dY_s/dx = w_s W_s
//	m dev/dx  = Q_v-t + Q_chem
//
// with (rho, u, T, p) recovered algebraically from the conserved mass,
// momentum and energy fluxes at every station.
func Solve(prob Problem) (*Profile, error) {
	m := prob.Mix
	mech := prob.Mech
	if prob.NOut == 0 {
		prob.NOut = 200
	}
	if prob.XEnd <= 0 {
		return nil, fmt.Errorf("shocktube: XEnd must be positive")
	}
	y1 := prob.Y1
	if y1 == nil {
		return nil, fmt.Errorf("shocktube: upstream composition required")
	}
	rho1 := m.Density(prob.P1, prob.T1, y1)
	mflux := rho1 * prob.U1
	P0 := prob.P1 + rho1*prob.U1*prob.U1
	H0 := m.Enthalpy(prob.T1, y1) + 0.5*prob.U1*prob.U1

	rho2, u2, p2, T2, err := FrozenVibJump(m, y1, prob.P1, prob.T1, prob.U1)
	if err != nil {
		return nil, err
	}
	_ = p2

	nsp := m.Len()
	// State: [Y_0..Y_{nsp-1}, ev].
	state := make([]float64, nsp+1)
	copy(state, y1)
	state[nsp] = m.EVibPool(prob.T1, y1)

	// recover computes the algebraic flow state for a given (Y, ev).
	type flow struct {
		rho, u, p, T, Tv float64
	}
	lastTv := prob.T1
	recover := func(st []float64) (flow, error) {
		y := st[:nsp]
		ev := st[nsp]
		cpTR := m.CvTransRot(y) + m.R(y)
		R := m.R(y)
		hOff := ev + m.HFormation(y)
		a := mflux*R/(2*cpTR) - mflux
		b := P0
		c := -mflux * R / cpTR * (H0 - hOff)
		disc := b*b - 4*a*c
		if disc < 0 {
			return flow{}, fmt.Errorf("shocktube: lost jump branch")
		}
		u := (-b + math.Sqrt(disc)) / (2 * a)
		if u <= 0 || u >= prob.U1 {
			u = (-b - math.Sqrt(disc)) / (2 * a)
		}
		if u <= 0 {
			return flow{}, fmt.Errorf("shocktube: nonpositive velocity")
		}
		rho := mflux / u
		p := P0 - mflux*u
		T := (H0 - hOff - 0.5*u*u) / cpTR
		if T <= 0 {
			return flow{}, fmt.Errorf("shocktube: nonpositive temperature")
		}
		Tv, err := m.TvFromPool(ev, y, lastTv)
		if err != nil {
			return flow{}, err
		}
		lastTv = Tv
		return flow{rho: rho, u: u, p: p, T: T, Tv: Tv}, nil
	}

	// Use the post-shock frozen state to seed the recovery (sanity check).
	if _, err := recover(state); err != nil {
		return nil, fmt.Errorf("shocktube: post-shock state: %w", err)
	}
	_ = rho2
	_ = u2
	_ = T2

	wdot := make([]float64, nsp)
	yc := make([]float64, nsp)
	deriv := func(x float64, st, dst []float64) {
		// Clip negative mass fractions for source evaluation.
		copy(yc, st[:nsp])
		for i := range yc {
			if yc[i] < 0 {
				yc[i] = 0
			}
		}
		fl, err := recover(st)
		if err != nil {
			for i := range dst {
				dst[i] = 0
			}
			return
		}
		mech.Production(fl.rho, fl.T, fl.Tv, yc, wdot)
		for s := 0; s < nsp; s++ {
			dst[s] = wdot[s] * m.Species[s].W / mflux
		}
		Q := mech.VibSource(fl.rho, fl.p, fl.T, fl.Tv, yc, wdot)
		dst[nsp] = Q / mflux
	}

	prof := &Profile{}
	push := func(x float64, st []float64) error {
		fl, err := recover(st)
		if err != nil {
			return err
		}
		prof.X = append(prof.X, x)
		prof.T = append(prof.T, fl.T)
		prof.Tv = append(prof.Tv, fl.Tv)
		prof.P = append(prof.P, fl.p)
		prof.Rho = append(prof.Rho, fl.rho)
		prof.U = append(prof.U, fl.u)
		yc := append([]float64(nil), st[:nsp]...)
		thermo.Normalize(yc)
		prof.Y = append(prof.Y, yc)
		return nil
	}
	if err := push(0, state); err != nil {
		return nil, err
	}
	// Integrate between output stations with the adaptive integrator; use a
	// log-spaced output grid (the interesting physics is in the first mm).
	xs := numerics.Logspace(prob.XEnd*1e-5, prob.XEnd, prob.NOut-1)
	xPrev := 0.0
	for _, x := range xs {
		if _, err := numerics.RKF45(deriv, xPrev, x, state, numerics.RKF45Options{
			RelTol: 1e-6, AbsTol: 1e-9, MaxSteps: 400000,
			HInit: (x - xPrev) / 50,
		}); err != nil {
			return prof, fmt.Errorf("shocktube: integration to x=%g: %w", x, err)
		}
		// Renormalize drift.
		thermo.Normalize(state[:nsp])
		if err := push(x, state); err != nil {
			return prof, err
		}
		xPrev = x
	}
	return prof, nil
}

// EquilibriumTail returns the fully relaxed (equilibrium) post-shock state
// for comparison with the end of the integrated profile.
func EquilibriumTail(eq *chem.EquilibriumSolver, prob Problem) (T float64, y []float64, err error) {
	st, err := func() (s struct {
		T float64
		Y []float64
	}, err error) {
		js, err := shockEquil(eq, prob)
		if err != nil {
			return s, err
		}
		s.T = js.T
		s.Y = js.Y
		return s, nil
	}()
	if err != nil {
		return 0, nil, err
	}
	return st.T, st.Y, nil
}

type jumpState struct {
	T float64
	Y []float64
}

func shockEquil(eq *chem.EquilibriumSolver, prob Problem) (jumpState, error) {
	m := prob.Mix
	rho1 := m.Density(prob.P1, prob.T1, prob.Y1)
	mflux := rho1 * prob.U1
	P0 := prob.P1 + rho1*prob.U1*prob.U1
	H0 := m.Enthalpy(prob.T1, prob.Y1) + 0.5*prob.U1*prob.U1
	// Iterate: guess u2, compute p2, h2, equilibrium rho; match mass flux.
	f := func(u2 float64) float64 {
		p2 := P0 - mflux*u2
		h2 := H0 - 0.5*u2*u2
		_, _, rho, err := eq.TemperaturePH(p2, h2, prob.Y1)
		if err != nil {
			return math.NaN()
		}
		return rho*u2 - mflux
	}
	lo, hi := prob.U1*0.005, prob.U1*0.5
	u2, err := numerics.Brent(f, lo, hi, 1e-8*prob.U1)
	if err != nil {
		return jumpState{}, err
	}
	p2 := P0 - mflux*u2
	h2 := H0 - 0.5*u2*u2
	T, y, _, err := eq.TemperaturePH(p2, h2, prob.Y1)
	if err != nil {
		return jumpState{}, err
	}
	return jumpState{T: T, Y: y}, nil
}
