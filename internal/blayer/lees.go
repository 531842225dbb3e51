package blayer

import (
	"fmt"
	"math"

	"cataero/internal/chem"
	"cataero/internal/geometry"
	"cataero/internal/numerics"
	"cataero/internal/shock"
	"cataero/internal/thermo"
	"cataero/internal/transport"
)

// EdgeState is the inviscid boundary-layer edge state at one body station.
type EdgeState struct {
	S            float64 // arc length, m
	P, T, Rho, H float64
	Ue           float64 // edge velocity, m/s
	Mu           float64
	R            float64 // body radius from axis
	Y            []float64
}

// EdgeDistribution computes boundary-layer edge conditions along an
// axisymmetric body from the modified-Newtonian pressure distribution and an
// isentropic expansion from the equilibrium stagnation state stag (the
// normal-shock entropy layer assumption of the era's E+BL codes). A non-nil
// progress(station, total) runs after each station's equilibrium expansion
// (the expensive part of an E+BL solve), so run handles can show
// station-level progress.
func EdgeDistribution(eq *chem.EquilibriumSolver, tr *transport.Mixture, y0 []float64, stag shock.StagnationState, fs FreeStream, body geometry.Body, ns int, progress func(station, total int)) ([]EdgeState, error) {
	m := eq.Mix
	sStag := m.Entropy(stag.T, stag.P, stag.Y)
	h0 := stag.H
	cpMax := (stag.P - fs.P) / (0.5 * fs.Rho * fs.V * fs.V)

	out := make([]EdgeState, ns)
	sMax := body.MaxS()
	for i := 0; i < ns; i++ {
		s := sMax * float64(i) / float64(ns-1)
		theta := body.Angle(s) // surface inclination to the freestream
		sinT := math.Sin(theta)
		// Modified Newtonian with the usual aft-body floor: where the
		// surface turns parallel to the flow, sin^2(theta) -> 0 understates
		// the measured pressure (shock-curvature effects); era codes floor
		// the pressure coefficient at a few percent of stagnation.
		cpLocal := cpMax * sinT * sinT
		if cpLocal < 0.04*cpMax {
			cpLocal = 0.04 * cpMax
		}
		pe := fs.P + 0.5*fs.Rho*fs.V*fs.V*cpLocal
		if pe < fs.P {
			pe = fs.P
		}
		// Isentropic expansion from stagnation to pe: find T with
		// s_eq(T, pe) = s_stag.
		Te, ye, rhoe, err := isentropicT(eq, m, y0, pe, sStag, stag.T)
		if err != nil {
			return nil, fmt.Errorf("blayer: edge state at s=%g: %w", s, err)
		}
		he := m.Enthalpy(Te, ye)
		ue2 := 2 * (h0 - he)
		if ue2 < 0 {
			ue2 = 0
		}
		_, r := body.Point(s)
		out[i] = EdgeState{
			S: s, P: pe, T: Te, Rho: rhoe, H: he,
			Ue: math.Sqrt(ue2), Mu: tr.Viscosity(Te, ye), R: r, Y: ye,
		}
		if progress != nil {
			progress(i+1, ns)
		}
	}
	return out, nil
}

// isentropicT finds the equilibrium temperature at pressure p on the
// isentrope of entropy sTarget by bisection, starting below T0.
func isentropicT(eq *chem.EquilibriumSolver, m *thermo.Mixture, y0 []float64, p, sTarget, T0 float64) (float64, []float64, float64, error) {
	f := func(T float64) (float64, []float64, float64, error) {
		y, rho, err := eq.CompositionPT(p, T, y0)
		if err != nil {
			return 0, nil, 0, err
		}
		return m.Entropy(T, p, y) - sTarget, y, rho, nil
	}
	lo, hi := 200.0, T0*1.05+100
	flo, _, _, err := f(lo)
	if err != nil {
		return 0, nil, 0, err
	}
	fhi, yhi, rhohi, err := f(hi)
	if err != nil {
		return 0, nil, 0, err
	}
	if flo > 0 {
		// Entropy everywhere above target: gas fully expanded; return cold end.
		_, ylo, rholo, err := f(lo)
		return lo, ylo, rholo, err
	}
	if fhi < 0 {
		return hi, yhi, rhohi, nil
	}
	var ymid []float64
	var rhomid float64
	for i := 0; i < 70; i++ {
		mid := 0.5 * (lo + hi)
		fm, ym, rm, err := f(mid)
		if err != nil {
			return 0, nil, 0, err
		}
		ymid, rhomid = ym, rm
		if math.Abs(fm) < 1e-6*math.Abs(sTarget) || hi-lo < 0.5 {
			return mid, ym, rm, nil
		}
		if fm > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi), ymid, rhomid, nil
}

// LeesDistribution returns the laminar heating ratio q(s)/q(0) along the
// body by Lees' local-similarity result:
//
//	q(s)/q(0) = [rho_e mu_e u_e r^2 / sqrt(2 xi)] / lim_{s->0}[...]
//	xi(s) = int_0^s rho_e mu_e u_e r^2 ds
//
// The edge states must start at the stagnation point (s=0).
func LeesDistribution(edges []EdgeState, rn float64, pInf float64) []float64 {
	n := len(edges)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	// Stagnation limit: q(0) proportional to sqrt(beta rho_e mu_e) with
	// beta = du_e/ds at s=0 estimated from the first station spacing.
	e0 := edges[0]
	beta := math.Sqrt(2*math.Max(e0.P-pInf, e0.P*0.5)/e0.Rho) / rn
	// Stagnation limit of rho_e mu_e u_e r / sqrt(2 xi): sqrt(2 beta rho mu).
	q0 := math.Sqrt(2 * beta * e0.Rho * e0.Mu)
	out[0] = 1
	xi := 0.0
	for i := 1; i < n; i++ {
		a := edges[i-1]
		b := edges[i]
		// xi integrand carries r^2; the flux numerator carries a single r.
		fa := a.Rho * a.Mu * a.Ue * a.R * a.R
		fb := b.Rho * b.Mu * b.Ue * b.R * b.R
		if i == 1 && a.S == 0 {
			// Near the stagnation point the integrand grows like s^3
			// (u_e ~ beta*s, r ~ s); the exact first-interval integral is
			// f(s) s/4, which a trapezoid would overestimate by 2x.
			xi += fb * (b.S - a.S) / 4
		} else {
			xi += 0.5 * (fa + fb) * (b.S - a.S)
		}
		if xi <= 0 {
			out[i] = 1
			continue
		}
		q := b.Rho * b.Mu * b.Ue * b.R / math.Sqrt(2*xi)
		out[i] = numerics.Clamp(q/q0, 0, 2)
	}
	return out
}
