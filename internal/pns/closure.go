package pns

import (
	"fmt"
	"math"

	"cataero/internal/blayer"
	"cataero/internal/chem"
	"cataero/internal/geometry"
	"cataero/internal/numerics"
	"cataero/internal/shock"
	"cataero/internal/thermo"
	"cataero/internal/transport"
)

// EquilibriumProps builds an equilibrium-air property closure with a
// per-pressure enthalpy table (rebuilt lazily when the pressure changes by
// more than 2%), keeping the marching loop cheap.
func EquilibriumProps(eq *chem.EquilibriumSolver, tr *transport.Mixture, y0 []float64) Props {
	type tbl struct {
		p   float64
		h   []float64
		rho []float64
		mu  []float64
	}
	var cache *tbl
	build := func(p, hMax float64) (*tbl, error) {
		m := eq.Mix
		nT := 28
		ts := numerics.Logspace(250, 20000, nT)
		t := &tbl{p: p}
		for _, T := range ts {
			y, rho, err := eq.CompositionPT(p, T, y0)
			if err != nil {
				return nil, err
			}
			h := m.Enthalpy(T, y)
			if len(t.h) > 0 && h <= t.h[len(t.h)-1] {
				continue
			}
			t.h = append(t.h, h)
			t.rho = append(t.rho, rho)
			t.mu = append(t.mu, tr.Viscosity(T, y))
			if h > hMax*1.5 && hMax > 0 {
				break
			}
		}
		if len(t.h) < 4 {
			return nil, fmt.Errorf("pns: degenerate property table at p=%g", p)
		}
		return t, nil
	}
	return func(p, h float64) (float64, float64, error) {
		if p <= 0 {
			return 0, 0, fmt.Errorf("pns: nonpositive pressure %g", p)
		}
		if cache == nil || math.Abs(cache.p-p)/p > 0.02 {
			t, err := build(p, h)
			if err != nil {
				return 0, 0, err
			}
			cache = t
		}
		rho := numerics.LinearInterp(cache.h, cache.rho, h)
		mu := numerics.LinearInterp(cache.h, cache.mu, h)
		if rho <= 0 || mu <= 0 {
			return 0, 0, fmt.Errorf("pns: bad interpolated properties at h=%g", h)
		}
		return rho, mu, nil
	}
}

// IdealProps builds an ideal-gas property closure with ratio of specific
// heats gamma and gas constant r, using Sutherland viscosity.
func IdealProps(gamma, r float64) Props {
	cp := gamma * r / (gamma - 1)
	return func(p, h float64) (float64, float64, error) {
		if p <= 0 || h <= 0 {
			return 0, 0, fmt.Errorf("pns: nonphysical ideal state p=%g h=%g", p, h)
		}
		T := h / cp
		return p / (r * T), transport.Sutherland(T), nil
	}
}

// IdealEdgeDistribution builds ideal-gas boundary-layer edge states along an
// axisymmetric body at freestream (p, T, V): normal-shock pitot stagnation
// state, modified-Newtonian pressures and a closed-form isentrope. A non-nil
// progress(station, total) runs after each station, so drivers can surface
// the setup sweep the same way the equilibrium edge distribution does.
func IdealEdgeDistribution(gamma, r float64, fs blayer.FreeStream, body geometry.Body, ns int, progress func(station, total int)) ([]blayer.EdgeState, error) {
	cp := gamma * r / (gamma - 1)
	a1 := math.Sqrt(gamma * r * fs.T)
	m1 := fs.V / a1
	if m1 <= 1 {
		return nil, fmt.Errorf("pns: subsonic freestream")
	}
	_, pR, tR, m2, err := shock.IdealJump(gamma, m1)
	if err != nil {
		return nil, err
	}
	p2 := pR * fs.P
	t2 := tR * fs.T
	// Isentropic compression to the stagnation point.
	pStag := p2 * math.Pow(1+(gamma-1)/2*m2*m2, gamma/(gamma-1))
	tStag := t2 * (1 + (gamma-1)/2*m2*m2)
	h0 := cp * tStag
	cpMax := (pStag - fs.P) / (0.5 * fs.Rho * fs.V * fs.V)
	out := make([]blayer.EdgeState, ns)
	sMax := body.MaxS()
	for i := 0; i < ns; i++ {
		s := sMax * float64(i) / float64(ns-1)
		th := body.Angle(s)
		sinT := math.Sin(th)
		cpl := cpMax * sinT * sinT
		if cpl < 0.04*cpMax {
			cpl = 0.04 * cpMax
		}
		pe := fs.P + 0.5*fs.Rho*fs.V*fs.V*cpl
		Te := tStag * math.Pow(pe/pStag, (gamma-1)/gamma)
		he := cp * Te
		ue2 := 2 * (h0 - he)
		if ue2 < 0 {
			ue2 = 0
		}
		_, rr := body.Point(s)
		out[i] = blayer.EdgeState{
			S: s, P: pe, T: Te, Rho: pe / (r * Te), H: he,
			Ue: math.Sqrt(ue2), Mu: transport.Sutherland(Te), R: rr,
		}
		if progress != nil {
			progress(i+1, ns)
		}
	}
	return out, nil
}

// WallEnthalpyEquilibrium returns the recombined equilibrium wall enthalpy.
func WallEnthalpyEquilibrium(eq *chem.EquilibriumSolver, y0 []float64, p, tw float64) (float64, error) {
	y, _, err := eq.CompositionPT(p, tw, y0)
	if err != nil {
		return 0, err
	}
	return eq.Mix.Enthalpy(tw, y), nil
}

var _ = thermo.Ru // referenced by doc examples
