// Package blayer implements the boundary-layer half of the paper's E+BL
// solver class: Fay-Riddell stagnation-point heating, a finite-difference
// stagnation similarity solution with finite-rate catalytic walls, inviscid
// edge-condition construction (modified Newtonian + equilibrium isentrope),
// and the Lees local-similarity heating distribution along blunt bodies.
package blayer

import (
	"fmt"
	"math"

	"cataero/internal/chem"
	"cataero/internal/shock"
	"cataero/internal/thermo"
	"cataero/internal/transport"
)

// FreeStream bundles the upstream conditions for heating analyses.
type FreeStream struct {
	P, T, Rho, V float64
}

// StagnationInputs collects everything Fay-Riddell needs.
type StagnationInputs struct {
	Edge       shock.StagnationState // equilibrium edge (external) state
	WallT      float64               // wall temperature, K
	WallY      []float64             // wall-gas composition (recombined); nil = edge.Y
	NoseRadius float64               // m
	PInf       float64               // freestream pressure (for du_e/ds)
	Lewis      float64               // Lewis number (default 1.4)
}

// VelocityGradient returns the Newtonian stagnation velocity gradient
// du_e/ds = (1/Rn) sqrt(2 (p_e - p_inf)/rho_e).
func VelocityGradient(edge shock.StagnationState, pInf, rn float64) float64 {
	dp := edge.P - pInf
	if dp < 0 {
		dp = edge.P
	}
	return math.Sqrt(2*dp/edge.Rho) / rn
}

// FayRiddell returns the stagnation-point heat flux (W/m^2) from the
// Fay-Riddell correlation for an equilibrium boundary layer with a fully
// catalytic wall:
//
//	q = 0.76 Pr^-0.6 (rho_e mu_e)^0.4 (rho_w mu_w)^0.1 sqrt(du_e/ds)
//	    (h0e - hw) [1 + (Le^0.52 - 1) hD/h0e]
func FayRiddell(m *thermo.Mixture, tr *transport.Mixture, in StagnationInputs) (float64, error) {
	if in.NoseRadius <= 0 {
		return 0, fmt.Errorf("blayer: nonpositive nose radius")
	}
	le := in.Lewis
	if le <= 0 {
		le = 1.4
	}
	edge := in.Edge
	mue, ke := tr.ViscosityConductivity(edge.T, edge.Y)
	// Wall properties at edge pressure and wall temperature. The wall gas is
	// recombined (cold equilibrium), so its enthalpy carries no dissociation
	// energy; using the frozen edge composition here would understate the
	// driving enthalpy difference.
	wallY := in.WallY
	if wallY == nil {
		wallY = edge.Y
	}
	rhow := m.Density(edge.P, in.WallT, wallY)
	muw := tr.Viscosity(in.WallT, wallY)
	beta := VelocityGradient(edge, in.PInf, in.NoseRadius)
	hw := m.Enthalpy(in.WallT, wallY)
	// Dissociation enthalpy carried by the edge gas.
	hD := m.HFormation(edge.Y)
	pr := transport.FrozenPrandtl(tr.Mix.Cp(edge.T, edge.Y), mue, ke)
	if pr <= 0 {
		pr = 0.71
	}
	q := 0.76 * math.Pow(pr, -0.6) *
		math.Pow(edge.Rho*mue, 0.4) * math.Pow(rhow*muw, 0.1) *
		math.Sqrt(beta) * (edge.H - hw) *
		(1 + (math.Pow(le, 0.52)-1)*hD/edge.H)
	return q, nil
}

// SuttonGraves returns the classic engineering stagnation heating
// correlation q = k sqrt(rho/Rn) V^3 with k = 1.7415e-4 (SI) for Earth air;
// used as an order-of-magnitude cross-check of the similarity results.
func SuttonGraves(rho, v, rn float64) float64 {
	return 1.7415e-4 * math.Sqrt(rho/rn) * v * v * v
}

// StagnationFromFreestream builds the equilibrium stagnation inputs from
// freestream conditions (helper used by examples and benches).
func StagnationFromFreestream(eq *chem.EquilibriumSolver, y0 []float64, fs FreeStream, wallT, rn float64) (StagnationInputs, error) {
	st, err := shock.StagnationEquilibrium(eq, y0, fs.P, fs.T, fs.V)
	if err != nil {
		return StagnationInputs{}, err
	}
	// Recombined wall gas: equilibrium composition at the (cold) wall.
	wallY, _, err := eq.CompositionPT(st.P, wallT, y0)
	if err != nil {
		wallY = nil // fall back to the frozen edge composition
	}
	return StagnationInputs{Edge: st, WallT: wallT, WallY: wallY, NoseRadius: rn, PInf: fs.P}, nil
}
