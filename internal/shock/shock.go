// Package shock provides normal-shock jump relations for ideal, frozen
// (calorically imperfect, fixed composition) and equilibrium gases, plus the
// stagnation-state construction used by the heating modules. These are the
// entry points every solver uses to set post-shock and edge conditions.
package shock

import (
	"fmt"
	"math"

	"cataero/internal/chem"
	"cataero/internal/numerics"
	"cataero/internal/thermo"
)

// State is a 1-D flow state on either side of a shock.
type State struct {
	Rho, U, P, T, H float64
	Y               []float64 // mass fractions (nil for ideal gas)
}

// IdealJump returns the downstream/upstream ratios across a normal shock in
// a perfect gas: density, pressure, temperature ratios and M2.
func IdealJump(gamma, m1 float64) (rhoR, pR, tR, m2 float64, err error) {
	if m1 <= 1 {
		return 0, 0, 0, 0, fmt.Errorf("shock: upstream Mach %g must exceed 1", m1)
	}
	g := gamma
	m1s := m1 * m1
	rhoR = (g + 1) * m1s / ((g-1)*m1s + 2)
	pR = 1 + 2*g/(g+1)*(m1s-1)
	tR = pR / rhoR
	m2s := ((g-1)*m1s + 2) / (2*g*m1s - (g - 1))
	m2 = math.Sqrt(m2s)
	return rhoR, pR, tR, m2, nil
}

// FrozenJump solves the Rankine-Hugoniot relations for a gas with frozen
// composition y and the full caloric equation of state (vibration excited at
// the local temperature but no chemistry). Upstream state: p1, T1, u1.
func FrozenJump(m *thermo.Mixture, y []float64, p1, T1, u1 float64) (State, error) {
	rho1 := m.Density(p1, T1, y)
	h1 := m.Enthalpy(T1, y)
	up := State{Rho: rho1, U: u1, P: p1, T: T1, H: h1, Y: y}
	return rhJump(up, func(p, h float64) (float64, error) {
		T, err := m.TemperatureFromH(h, y, T1*5)
		if err != nil {
			return 0, err
		}
		return m.Density(p, T, y), nil
	}, func(p, h float64) (float64, error) {
		return m.TemperatureFromH(h, y, T1*5)
	})
}

// EquilibriumJump solves the Rankine-Hugoniot relations with the downstream
// gas in local thermochemical equilibrium (the classical "equilibrium normal
// shock"). y0 defines the elemental composition.
func EquilibriumJump(eq *chem.EquilibriumSolver, y0 []float64, p1, T1, u1 float64) (State, error) {
	m := eq.Mix
	rho1 := m.Density(p1, T1, y0)
	h1 := m.Enthalpy(T1, y0)
	up := State{Rho: rho1, U: u1, P: p1, T: T1, H: h1, Y: y0}
	var lastY []float64
	var lastT float64
	st, err := rhJump(up, func(p, h float64) (float64, error) {
		T, y, rho, err := eq.TemperaturePH(p, h, y0)
		if err != nil {
			return 0, err
		}
		lastY, lastT = y, T
		return rho, nil
	}, func(p, h float64) (float64, error) {
		T, _, _, err := eq.TemperaturePH(p, h, y0)
		return T, err
	})
	if err != nil {
		return st, err
	}
	st.Y = lastY
	st.T = lastT
	return st, nil
}

// rhJump solves mass/momentum/energy conservation across the shock given a
// density closure rho(p,h) and temperature closure T(p,h).
func rhJump(up State, rhoOf func(p, h float64) (float64, error), tOf func(p, h float64) (float64, error)) (State, error) {
	mflux := up.Rho * up.U
	if mflux <= 0 {
		return State{}, fmt.Errorf("shock: nonpositive mass flux")
	}
	h0 := up.H + 0.5*up.U*up.U
	f := func(u2 float64) float64 {
		p2 := up.P + mflux*(up.U-u2)
		h2 := h0 - 0.5*u2*u2
		rho2, err := rhoOf(p2, h2)
		if err != nil {
			return math.NaN()
		}
		return rho2*u2 - mflux
	}
	// Downstream velocity lies between a tiny fraction of u1 (strong,
	// real-gas shock) and u1 (no shock). Bracket from below.
	lo := up.U * 0.01
	hi := up.U * 0.95
	flo, fhi := f(lo), f(hi)
	// Expand the bracket downward if needed (very strong equilibrium shocks
	// can have u2/u1 < 0.01... keep going).
	for i := 0; i < 8 && (math.IsNaN(flo) || flo*fhi > 0); i++ {
		lo *= 0.3
		flo = f(lo)
	}
	if math.IsNaN(flo) || math.IsNaN(fhi) || flo*fhi > 0 {
		return State{}, fmt.Errorf("shock: failed to bracket the jump (f(%g)=%g f(%g)=%g)", lo, flo, hi, fhi)
	}
	u2, err := numerics.Brent(f, lo, hi, 1e-10*up.U)
	if err != nil {
		return State{}, fmt.Errorf("shock: %w", err)
	}
	p2 := up.P + mflux*(up.U-u2)
	h2 := h0 - 0.5*u2*u2
	rho2, err := rhoOf(p2, h2)
	if err != nil {
		return State{}, err
	}
	T2, err := tOf(p2, h2)
	if err != nil {
		return State{}, err
	}
	return State{Rho: rho2, U: u2, P: p2, T: T2, H: h2, Y: up.Y}, nil
}

// Stagnation returns the stagnation-point edge state behind a normal shock:
// total enthalpy conserved, pressure recovered by the near-incompressible
// compression from the low subsonic post-shock state
// (p_e = p2 + rho2 u2^2 / 2). For equilibrium gases the composition and
// temperature are re-equilibrated at (p_e, h0).
type StagnationState struct {
	P, H, T, Rho float64
	Y            []float64
}

// StagnationEquilibrium builds the equilibrium stagnation state from
// freestream conditions: the equilibrium jump, then StagnationBehind.
func StagnationEquilibrium(eq *chem.EquilibriumSolver, y0 []float64, p1, T1, u1 float64) (StagnationState, error) {
	post, err := EquilibriumJump(eq, y0, p1, T1, u1)
	if err != nil {
		return StagnationState{}, err
	}
	return StagnationBehind(eq, y0, post)
}

// StagnationBehind builds the equilibrium stagnation state behind an
// already solved equilibrium jump post, for callers that need the jump too.
func StagnationBehind(eq *chem.EquilibriumSolver, y0 []float64, post State) (StagnationState, error) {
	pe := post.P + 0.5*post.Rho*post.U*post.U
	h0 := post.H + 0.5*post.U*post.U
	T, y, rho, err := eq.TemperaturePH(pe, h0, y0)
	if err != nil {
		return StagnationState{}, err
	}
	return StagnationState{P: pe, H: h0, T: T, Rho: rho, Y: y}, nil
}

// StagnationFrozen builds the frozen-composition stagnation state.
func StagnationFrozen(m *thermo.Mixture, y []float64, p1, T1, u1 float64) (StagnationState, error) {
	post, err := FrozenJump(m, y, p1, T1, u1)
	if err != nil {
		return StagnationState{}, err
	}
	pe := post.P + 0.5*post.Rho*post.U*post.U
	h0 := post.H + 0.5*post.U*post.U
	T, err := m.TemperatureFromH(h0, y, post.T)
	if err != nil {
		return StagnationState{}, err
	}
	return StagnationState{P: pe, H: h0, T: T, Rho: m.Density(pe, T, y), Y: y}, nil
}
