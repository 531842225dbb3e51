// Package ns drives the shared finite-volume kernel as the Navier-Stokes
// solver class of the paper: thin-layer viscous terms, no-slip isothermal
// wall, upwind shock capture and an equilibrium-air equation of state; the
// configuration of the paper's Fig. 9 (Mach-20 equilibrium air over a
// hemisphere at 20 km, N2 mole-fraction contours).
package ns

import (
	"context"
	"fmt"
	"math"

	"cataero/internal/chem"
	"cataero/internal/fvm"
	"cataero/internal/gas"
	"cataero/internal/geometry"
	"cataero/internal/grid"
	"cataero/internal/transport"
)

// Case defines an axisymmetric blunt-body NS solve.
type Case struct {
	Gas      gas.Model // typically an equilibrium table
	Rn       float64   // hemisphere radius
	NI, NJ   int       // default 20 x 32
	VInf     float64
	PInf     float64
	TInf     float64
	TWall    float64
	MaxSteps int
	CFL      float64
	Mu       func(T float64) float64
	K        func(T float64) float64
	// Options carries the finite-volume numerics — flux, time stepping,
	// implicit sweep, limiter, checkpointing, pool and progress — through
	// to the kernel unchanged. Solve sets the physics fields the case owns
	// over it: Gas, Viscous, Wall, TWall, Mu, K, CFL, MUSCL and the
	// freestream.
	Options fvm.Options
	// Sequence configures the grid sequencing of the march (see
	// fvm.SolveMultilevel and the Levels and RefitEvery fields of
	// fvm.SequenceOptions); the zero value is the plain single-grid march.
	Sequence fvm.SequenceOptions
}

// Result carries the converged field and surface data.
type Result struct {
	Solver *fvm.Solver
	Grid   *grid.Grid2D
	QWall  []float64 // wall heat flux per i-station, W/m^2
	S      []float64 // wall arc length per station
}

// Solve runs the case to steady state. The context is threaded into the
// time-marching loop; cancellation aborts the solve with ctx.Err().
func Solve(ctx context.Context, c Case) (*Result, error) {
	if c.Gas == nil {
		return nil, fmt.Errorf("ns: gas model required")
	}
	if c.Rn <= 0 {
		return nil, fmt.Errorf("ns: nose radius required")
	}
	if c.NI == 0 {
		c.NI = 20
	}
	if c.NJ == 0 {
		c.NJ = 32
	}
	if c.CFL == 0 {
		c.CFL = 0.4
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 6000
	}
	if c.Mu == nil {
		c.Mu = transport.Sutherland
	}
	if c.K == nil {
		c.K = transport.SutherlandConductivity
	}
	body := geometry.NewSphere(c.Rn)
	g, err := grid.NewBlunt(body, body.MaxS(), c.NI, c.NJ, func(s float64) float64 {
		return 0.35*c.Rn + 0.3*s
	}, 1.08) // wall clustering for the viscous layer
	if err != nil {
		return nil, err
	}
	g.Axisymmetric = true
	o := c.Options
	o.Gas, o.Viscous, o.Wall, o.TWall = c.Gas, true, fvm.NoSlipIsothermal, c.TWall
	o.Mu, o.K, o.CFL, o.MUSCL = c.Mu, c.K, c.CFL, true
	o.FreestreamV = [2]float64{c.VInf, 0}
	o.FreestreamPT = [2]float64{c.PInf, c.TInf}
	const dropTol = 5e-4
	s, _, err := fvm.SolveMultilevel(ctx, g, o, c.MaxSteps, dropTol, c.Sequence)
	if err != nil {
		return nil, err
	}
	g = s.G // sequencing may have re-fitted the outer boundary
	res := &Result{Solver: s, Grid: g, QWall: s.WallHeatFlux()}
	res.S = make([]float64, c.NI)
	for i := 0; i < c.NI; i++ {
		res.S[i] = 0.5 * (g.S[i] + g.S[i+1])
	}
	return res, nil
}

// N2Field returns the equilibrium N2 mole fraction at every cell of the
// converged field (the contour quantity of Fig. 9), along with cell-center
// coordinates, evaluated by re-equilibrating each cell's (rho, T).
func (r *Result) N2Field(eq *chem.EquilibriumSolver, y0 []float64) (xs, ys, xn2 []float64, err error) {
	m := eq.Mix
	iN2 := m.Index("N2")
	if iN2 < 0 {
		return nil, nil, nil, fmt.Errorf("ns: mixture has no N2")
	}
	ni, nj := r.Grid.NI, r.Grid.NJ
	for i := 0; i < ni; i++ {
		for j := 0; j < nj; j++ {
			q := r.Solver.Primitive(i, j)
			x, y := r.Grid.CellCenter(i, j)
			yc, e := eq.CompositionRhoT(q.Rho, math.Max(q.T, 200), y0)
			if e != nil {
				return nil, nil, nil, e
			}
			xmol := m.MoleFractions(yc)
			xs = append(xs, x)
			ys = append(ys, y)
			xn2 = append(xn2, xmol[iN2])
		}
	}
	return xs, ys, xn2, nil
}

// ContourCrossings returns the stagnation-line positions (x at y~axis)
// where the N2 mole fraction crosses each requested level, scanning the
// i=0 line from the outer boundary to the wall. Mirrors the Fig. 9 contour
// labels along the stagnation streamline.
func (r *Result) ContourCrossings(eq *chem.EquilibriumSolver, y0 []float64, levels []float64) (map[float64]float64, error) {
	m := eq.Mix
	iN2 := m.Index("N2")
	nj := r.Grid.NJ
	xs := make([]float64, nj)
	vals := make([]float64, nj)
	for j := 0; j < nj; j++ {
		q := r.Solver.Primitive(0, j)
		x, _ := r.Grid.CellCenter(0, j)
		yc, err := eq.CompositionRhoT(q.Rho, math.Max(q.T, 200), y0)
		if err != nil {
			return nil, err
		}
		xs[j] = x
		vals[j] = m.MoleFractions(yc)[iN2]
	}
	out := map[float64]float64{}
	for _, lv := range levels {
		for j := nj - 1; j > 0; j-- {
			a, b := vals[j], vals[j-1]
			if (a-lv)*(b-lv) <= 0 && a != b {
				t := (lv - a) / (b - a)
				out[lv] = xs[j] + t*(xs[j-1]-xs[j])
				break
			}
		}
	}
	return out, nil
}

// EquilibriumTransport builds high-temperature Mu/K closures from the
// equilibrium composition at a representative density (transport properties
// are weak functions of density), for use in Case.Mu / Case.K.
func EquilibriumTransport(eqm *gas.Equilibrium, tr *transport.Mixture, rhoRef float64) (muF, kF func(T float64) float64, err error) {
	nT := 40
	ts := make([]float64, nT)
	mus := make([]float64, nT)
	ks := make([]float64, nT)
	for i := 0; i < nT; i++ {
		T := 200 + (14000-200)*float64(i)/float64(nT-1)
		y, e := eqm.Composition(rhoRef, T)
		if e != nil {
			return nil, nil, e
		}
		ts[i] = T
		mus[i], ks[i] = tr.ViscosityConductivity(T, y)
	}
	muF = func(T float64) float64 { return interp(ts, mus, T) }
	kF = func(T float64) float64 { return interp(ts, ks, T) }
	return muF, kF, nil
}

func interp(xs, ys []float64, x float64) float64 {
	n := len(xs)
	if x <= xs[0] {
		return ys[0]
	}
	if x >= xs[n-1] {
		return ys[n-1]
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (x - xs[lo]) / (xs[lo+1] - xs[lo])
	return ys[lo] + t*(ys[lo+1]-ys[lo])
}
