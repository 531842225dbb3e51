// Package vsl implements the stagnation-line viscous shock layer solver of
// the paper's VSL code class (HYVIS/RASLE/COLTS lineage): an equilibrium
// shock layer between the bow shock and a cool wall, with the viscous inner
// region from the Lees-Dorodnitsyn similarity solution, tangent-slab
// radiative transport across the layer, and the stagnation-line species
// profiles of the paper's Fig. 3. Driven along an entry trajectory it
// produces the convective/radiative heating pulses of Fig. 2.
package vsl

import (
	"context"
	"fmt"
	"math"

	"cataero/internal/atmosphere"
	"cataero/internal/blayer"
	"cataero/internal/chem"
	"cataero/internal/numerics"
	"cataero/internal/radiation"
	"cataero/internal/shock"
	"cataero/internal/thermo"
	"cataero/internal/transport"
)

// Inputs defines a stagnation-line VSL case.
type Inputs struct {
	Mix   *thermo.Mixture
	Eq    *chem.EquilibriumSolver
	Tr    *transport.Mixture
	Rad   *radiation.Model // nil disables radiation
	Y0    []float64        // freestream composition
	PInf  float64
	TInf  float64
	VInf  float64
	Rn    float64 // nose radius
	TWall float64
	NPts  int // stagnation-line output points (default 60)
	// Progress, when non-nil, is invoked after each converged step of the
	// expensive phases with (phase, point, total): phase "profile" covers the
	// NPts stagnation-line re-equilibrations, phase "radiation" the NPts-1
	// tangent-slab layer states (each another equilibrium solve). It runs on
	// the solving goroutine and must be cheap.
	Progress func(phase string, point, total int)
}

// Result is the converged stagnation-line solution.
type Result struct {
	QConv, QRad float64 // wall fluxes, W/m^2
	Standoff    float64 // shock standoff distance, m
	Edge        shock.StagnationState
	// Stagnation-line profiles from the wall (y=0) to the shock (y=Standoff).
	Y       []float64
	T       []float64
	H       []float64
	Species [][]float64 // equilibrium mass fractions at each point
}

// Solve computes the stagnation-line viscous shock layer. The context is
// polled between profile points; cancellation aborts with ctx.Err().
func Solve(ctx context.Context, in Inputs) (*Result, error) {
	if in.NPts == 0 {
		in.NPts = 60
	}
	if in.Rn <= 0 {
		return nil, fmt.Errorf("vsl: nose radius required")
	}
	m := in.Mix
	// Post-shock and stagnation states.
	post, err := shock.EquilibriumJump(in.Eq, in.Y0, in.PInf, in.TInf, in.VInf)
	if err != nil {
		return nil, fmt.Errorf("vsl: shock jump: %w", err)
	}
	stag, err := shock.StagnationBehind(in.Eq, in.Y0, post)
	if err != nil {
		return nil, fmt.Errorf("vsl: stagnation state: %w", err)
	}
	rho1 := m.Density(in.PInf, in.TInf, in.Y0)
	eps := rho1 / post.Rho
	// Classical correlation for sphere shock standoff (Serbin/Lobb form).
	standoff := 0.78 * eps * in.Rn

	// Viscous inner layer: similarity solution with a fully catalytic wall
	// (equilibrium-flow VSL limit).
	sim, err := blayer.SolveStagnation(m, in.Tr, stag, in.TWall, in.PInf, in.Rn, 1)
	if err != nil {
		return nil, fmt.Errorf("vsl: similarity layer: %w", err)
	}
	res := &Result{QConv: sim.QWall, Standoff: standoff, Edge: stag}

	// Stagnation-line enthalpy profile: the similarity solution provides the
	// shape function g(y) in the viscous sublayer; the layer itself is in
	// local equilibrium (the VSL assumption), so the profile runs from the
	// recombined equilibrium wall enthalpy to the stagnation enthalpy and
	// every point is re-equilibrated at (p_stag, h).
	hwEq, err := in.Eq.EnthalpyPT(stag.P, in.TWall, in.Y0)
	if err != nil {
		return nil, fmt.Errorf("vsl: wall state: %w", err)
	}
	ys := numerics.Linspace(0, standoff, in.NPts)
	res.Y = ys
	res.T = make([]float64, in.NPts)
	res.H = make([]float64, in.NPts)
	res.Species = make([][]float64, in.NPts)
	for i, y := range ys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var g float64
		if n := len(sim.YPhys); y <= sim.YPhys[n-1] {
			g = numerics.LinearInterp(sim.YPhys, sim.G, y)
		} else {
			g = 1
		}
		h := hwEq + numerics.Clamp(g, 0, 1)*(stag.H-hwEq)
		res.H[i] = h
		T, yc, _, err := in.Eq.TemperaturePH(stag.P, h, in.Y0)
		if err != nil {
			return nil, fmt.Errorf("vsl: profile point %d: %w", i, err)
		}
		res.T[i] = T
		res.Species[i] = yc
		if in.Progress != nil {
			in.Progress("profile", i+1, in.NPts)
		}
	}

	// Radiative transport across the layer.
	if in.Rad != nil {
		layers := make([]radiation.Layer, 0, in.NPts-1)
		for i := 1; i < in.NPts; i++ {
			// Each layer re-equilibrates the mid-point composition, which is
			// as expensive as a profile point: keep the radiation pass
			// cancellable too.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			Tm := 0.5 * (res.T[i] + res.T[i-1])
			// Composition at the mid temperature and stagnation pressure.
			ymid, rhomid, err := in.Eq.CompositionPT(stag.P, math.Max(Tm, 300), in.Y0)
			if err != nil {
				return nil, err
			}
			layers = append(layers, radiation.Layer{
				Thickness: ys[i] - ys[i-1],
				T:         Tm, Tex: Tm,
				N: m.NumberDensities(rhomid, ymid),
			})
			if in.Progress != nil {
				in.Progress("radiation", i, in.NPts-1)
			}
		}
		slab := in.Rad.SolveSlab(layers)
		res.QRad = slab.QWall
	}
	return res, nil
}

// SignificantHeating reports whether a trajectory point is worth a VSL
// solve: positive density, hypersonic velocity and non-negligible dynamic
// pressure. The Fig. 2 runner sweeps the entry trajectory through it.
func SignificantHeating(tp atmosphere.TrajectoryPoint) bool {
	if tp.Density <= 0 || tp.Velocity < 1500 {
		return false
	}
	return 0.5*tp.Density*tp.Velocity*tp.Velocity >= 50 // negligible heating this high up
}
