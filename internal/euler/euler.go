// Package euler drives the shared finite-volume kernel as the inviscid
// (Euler) solver class of the paper: time-marching shock capture over blunt
// bodies with ideal or equilibrium gas, used for the pitch-plane bow-shock
// shapes of Fig. 4. The windward pitch plane of a lifting vehicle at angle
// of attack is modeled as a planar blunt body whose surface inclination is
// the local windward inclination plus alpha (the 2-D reduction of the
// paper's Fig. 4 slice).
package euler

import (
	"context"
	"fmt"
	"math"

	"cataero/internal/fvm"
	"cataero/internal/gas"
	"cataero/internal/geometry"
	"cataero/internal/grid"
)

// Case defines a blunt-body Euler solve.
type Case struct {
	Gas      gas.Model
	Body     geometry.Body           // meshed over its whole arc, Body.MaxS()
	NI, NJ   int                     // grid cells (default 28 x 36)
	Standoff func(s float64) float64 // outer-boundary placement
	VInf     float64
	PInf     float64
	TInf     float64
	Axisym   bool
	MaxSteps int
	// Options carries the finite-volume numerics — flux, time stepping,
	// implicit sweep, limiter, checkpointing, pool and progress — through
	// to the kernel unchanged. Solve sets the physics fields the case owns
	// over it: Gas, an inviscid slip wall (Viscous off), MUSCL and the
	// freestream, and the explicit CFL number 0.5.
	Options fvm.Options
	// Sequence configures the grid sequencing of the march (see
	// fvm.SolveMultilevel and the Levels and RefitEvery fields of
	// fvm.SequenceOptions); the zero value is the plain single-grid march.
	Sequence fvm.SequenceOptions
}

// Result is the converged Euler solution.
type Result struct {
	Solver   *fvm.Solver
	ShockX   []float64 // bow-shock locus
	ShockY   []float64
	BodyX    []float64 // wall nodes for reference
	BodyY    []float64
	Standoff float64 // stagnation-line standoff distance, m
	Residual float64
}

// Solve runs the case to steady state and extracts the shock locus. The
// context is threaded into the time-marching loop; cancellation aborts the
// solve with ctx.Err().
func Solve(ctx context.Context, c Case) (*Result, error) {
	if c.Body == nil || c.Gas == nil {
		return nil, fmt.Errorf("euler: body and gas model required")
	}
	if c.NI == 0 {
		c.NI = 28
	}
	if c.NJ == 0 {
		c.NJ = 36
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 4000
	}
	if c.Standoff == nil {
		rn := c.Body.NoseRadius()
		c.Standoff = func(s float64) float64 { return 1.2*rn + 0.4*s }
	}
	g, err := grid.NewBlunt(c.Body, c.Body.MaxS(), c.NI, c.NJ, c.Standoff, 1.5)
	if err != nil {
		return nil, err
	}
	g.Axisymmetric = c.Axisym
	o := c.Options
	o.Gas, o.Viscous = c.Gas, false
	o.CFL, o.MUSCL = 0.5, true
	o.FreestreamV = [2]float64{c.VInf, 0}
	o.FreestreamPT = [2]float64{c.PInf, c.TInf}
	const dropTol = 5e-4
	s, res, err := fvm.SolveMultilevel(ctx, g, o, c.MaxSteps, dropTol, c.Sequence)
	if err != nil {
		return nil, err
	}
	g = s.G // sequencing may have re-fitted the outer boundary
	xs, ys := s.ShockLocus(2.5)
	out := &Result{Solver: s, ShockX: xs, ShockY: ys, Residual: res}
	out.BodyX = make([]float64, c.NI+1)
	out.BodyY = make([]float64, c.NI+1)
	for i := 0; i <= c.NI; i++ {
		out.BodyX[i] = g.X[i][0]
		out.BodyY[i] = g.Y[i][0]
	}
	// Stagnation standoff: distance from the nose to the shock on line 0.
	out.Standoff = math.Hypot(xs[0]-g.X[0][0], ys[0]-g.Y[0][0])
	return out, nil
}

// OrbiterPitchPlaneBody returns the planar equivalent body for the Orbiter
// windward pitch plane at angle of attack alpha: a blunted wedge with the
// Orbiter nose radius and a surface inclination of alpha plus the windward
// slope. Length lim limits the body extent (m, measured along the surface).
func OrbiterPitchPlaneBody(o *geometry.Orbiter, alpha, lim float64) geometry.Body {
	theta := alpha + 0.015
	if lim <= 0 {
		lim = o.Length
	}
	return geometry.NewSphereCone(o.Rn*1.4, theta, lim*math.Sin(theta))
}
