package fvm

import (
	"errors"
	"math"

	"cataero/internal/grid"
)

// SequenceOptions configures the grid sequencing of a solve
// (SolveMultilevel); the zero value is the plain single-grid march.
type SequenceOptions struct {
	// Levels is the number of grid levels, fine level included: 0 and 1
	// solve single-level, 2 runs the two-level cascade, and 3 or more build
	// a deeper hierarchy by chained coarsening. Levels the grid cannot reach
	// (cell counts not divisible by the factor, or below the 4x4 MUSCL
	// floor) are dropped automatically.
	Levels int
	// RefitEvery, when positive, re-detects the shock locus every RefitEvery
	// steps on the finest level mid-march, re-fits the outer boundary with
	// refitMargin and transfers the solution onto the refitted grid, so
	// late-march cells concentrate in the shock layer.
	RefitEvery int
}

// The fixed parameters of the cascade.
const (
	// coarsenFactor divides the cell counts between adjacent levels.
	coarsenFactor = 2
	// coarseDropTol is the relative residual drop for the coarsest level,
	// which only has to establish the shock. Intermediate levels of a deeper
	// hierarchy interpolate geometrically between it and the fine drop
	// tolerance (see levelTol).
	coarseDropTol = 1e-2
	// refitMargin is the outer-boundary margin of a mid-march refit over the
	// detected shock standoff.
	refitMargin = 1.4
)

// errNaNCalibration fails a solve whose target-setting step (a level's
// first step, or the calibration step of a handoff) has no positive
// residual to scale.
var errNaNCalibration = errors.New("fvm: multilevel solve: calibration step produced no usable residual")

// injectFrom initializes the solver's conserved field from a coarse
// solution by bilinear interpolation in cell-center index space. The old
// nearest-cell injection seeded a blocky field whose high-frequency error
// the fine level had to smooth away before converging anything else — on
// small grids that smoothing cost ate the whole sequencing win; the
// bilinear prolongation hands the fine level a field that is already
// smooth at the coarse scale.
func (s *Solver) injectFrom(c *Solver) {
	for i := 0; i < s.ni; i++ {
		i0, ti := prolongWeights(i, s.ni, c.ni)
		for j := 0; j < s.nj; j++ {
			j0, tj := prolongWeights(j, s.nj, c.nj)
			s.U[s.idx(i, j)] = c.bilinear(i0, j0, ti, tj)
		}
	}
}

// prolongWeights maps fine cell center i (of fn cells) into the coarse
// cell-center index space (of cn cells) for a bilinear prolongation:
// returns the lower coarse index and the blend factor toward index+1,
// clamped where the stencil leaves the grid (the boundary half-cells
// extrapolate constantly, matching the coarse boundary treatment).
func prolongWeights(i, fn, cn int) (int, float64) {
	if cn < 2 {
		return 0, 0
	}
	x := (float64(i)+0.5)*float64(cn)/float64(fn) - 0.5
	if x <= 0 {
		return 0, 0
	}
	if x >= float64(cn-1) {
		return cn - 2, 1
	}
	i0 := int(x)
	return i0, x - float64(i0)
}

// bilinear blends the four coarse cells around fractional cell-center
// index (i0+ti, j0+tj).
func (c *Solver) bilinear(i0, j0 int, ti, tj float64) Cons {
	i1, j1 := i0+1, j0+1
	if i1 > c.ni-1 {
		i1 = c.ni - 1
	}
	if j1 > c.nj-1 {
		j1 = c.nj - 1
	}
	w00 := (1 - ti) * (1 - tj)
	w01 := (1 - ti) * tj
	w10 := ti * (1 - tj)
	w11 := ti * tj
	u00 := c.U[c.idx(i0, j0)]
	u01 := c.U[c.idx(i0, j1)]
	u10 := c.U[c.idx(i1, j0)]
	u11 := c.U[c.idx(i1, j1)]
	var out Cons
	for cc := 0; cc < 4; cc++ {
		out[cc] = w00*u00[cc] + w01*u01[cc] + w10*u10[cc] + w11*u11[cc]
	}
	return out
}

// refitToShock rebuilds the solver's grid with its outer boundary placed at
// refitMargin times the detected shock standoff, interpolated in wall arc
// length across the i-lines.
func refitToShock(s *Solver) (*grid.Grid2D, error) {
	xs, ys := s.ShockLocus(2.5)
	g := s.G
	n := len(xs)
	sMid := make([]float64, n)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		sMid[i] = 0.5 * (g.S[i] + g.S[i+1])
		xw := 0.5 * (g.X[i][0] + g.X[i+1][0])
		yw := 0.5 * (g.Y[i][0] + g.Y[i+1][0])
		d[i] = refitMargin * math.Hypot(xs[i]-xw, ys[i]-yw)
	}
	// A locus hugging the wall (no shock found, or a collapsed line) would
	// produce a degenerate grid; floor at a quarter of the original standoff.
	for i := range d {
		if floor := 0.25 * g.WallDistance(i); d[i] < floor {
			d[i] = floor
		}
	}
	standoff := func(arc float64) float64 {
		if arc <= sMid[0] {
			return d[0]
		}
		if arc >= sMid[n-1] {
			return d[n-1]
		}
		lo, hi := 0, n-1
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if sMid[mid] <= arc {
				lo = mid
			} else {
				hi = mid
			}
		}
		t := (arc - sMid[lo]) / (sMid[lo+1] - sMid[lo])
		return d[lo] + t*(d[lo+1]-d[lo])
	}
	return g.Refit(standoff)
}
