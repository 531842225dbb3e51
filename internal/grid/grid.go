// Package grid generates the structured computational grids used by the
// finite-volume and marching solvers: Roberts-stretched 1-D distributions
// and body-fitted 2-D grids between a blunt body and an analytically
// prescribed outer boundary that hugs the expected bow shock.
package grid

import (
	"fmt"
	"math"
	"sync"

	"cataero/internal/geometry"
	"cataero/internal/numerics"
)

// Grid2D is a structured body-fitted grid. Nodes are stored as X[i][j],
// Y[i][j] with i = 0..NI along the body (i=0 at the stagnation line) and
// j = 0..NJ from the body surface (j=0) to the outer boundary (j=NJ).
// For axisymmetric use, Y is the radius from the axis.
type Grid2D struct {
	NI, NJ int // number of cells in each direction (nodes are NI+1 x NJ+1)
	X, Y   [][]float64
	// S holds the body arc length of each i-line's wall node.
	S []float64
	// Axisymmetric marks the grid for use with axisymmetric metrics.
	Axisymmetric bool

	// Generation parameters, kept so the grid can be re-fitted to a new
	// outer boundary or coarsened for grid sequencing (see Refit, Coarsen).
	body     geometry.Body
	sMax     float64
	beta     float64
	standoff func(s float64) float64

	mu      sync.Mutex
	metrics *Metrics
}

// NewBlunt builds a body-fitted grid around body b from arc length 0 to
// sMax with ni cells along the body and nj cells normal to it. The outer
// boundary is placed at distance standoff(s) along the local surface normal
// (use a shock-shape estimate); wall clustering uses Roberts stretching with
// parameter beta, which must exceed 1 (1.001 = strong clustering, 2 = mild).
func NewBlunt(b geometry.Body, sMax float64, ni, nj int, standoff func(s float64) float64, beta float64) (*Grid2D, error) {
	if ni < 2 || nj < 2 {
		return nil, fmt.Errorf("grid: need at least 2x2 cells, got %dx%d", ni, nj)
	}
	if sMax <= 0 || sMax > b.MaxS()*1.0001 {
		return nil, fmt.Errorf("grid: sMax=%g outside body range (0,%g]", sMax, b.MaxS())
	}
	if beta <= 1 {
		return nil, fmt.Errorf("grid: Roberts stretching parameter beta=%g must exceed 1", beta)
	}
	g := &Grid2D{NI: ni, NJ: nj, body: b, sMax: sMax, beta: beta, standoff: standoff}
	g.X = make([][]float64, ni+1)
	g.Y = make([][]float64, ni+1)
	g.S = make([]float64, ni+1)
	eta := numerics.Stretch1D(nj+1, beta)
	for i := 0; i <= ni; i++ {
		s := sMax * float64(i) / float64(ni)
		g.S[i] = s
		xw, rw := b.Point(s)
		th := b.Angle(s)
		// Outward surface normal for a body opening toward +x:
		// tangent = (cos th, sin th) pointing downstream; normal points
		// upstream/outboard = (-sin th... ) careful: for a sphere at s=0,
		// normal must point in -x (into the oncoming flow).
		nx := -math.Sin(th)
		ny := math.Cos(th)
		d := standoff(s)
		if d <= 0 {
			return nil, fmt.Errorf("grid: nonpositive standoff %g at s=%g", d, s)
		}
		g.X[i] = make([]float64, nj+1)
		g.Y[i] = make([]float64, nj+1)
		for j := 0; j <= nj; j++ {
			g.X[i][j] = xw + nx*d*eta[j]
			g.Y[i][j] = rw + ny*d*eta[j]
		}
	}
	return g, nil
}

// CellCenter returns the centroid of cell (i,j).
func (g *Grid2D) CellCenter(i, j int) (x, y float64) {
	x = 0.25 * (g.X[i][j] + g.X[i+1][j] + g.X[i][j+1] + g.X[i+1][j+1])
	y = 0.25 * (g.Y[i][j] + g.Y[i+1][j] + g.Y[i][j+1] + g.Y[i+1][j+1])
	return
}

// CellArea returns the planar area of cell (i,j) by the shoelace formula.
func (g *Grid2D) CellArea(i, j int) float64 {
	x1, y1 := g.X[i][j], g.Y[i][j]
	x2, y2 := g.X[i+1][j], g.Y[i+1][j]
	x3, y3 := g.X[i+1][j+1], g.Y[i+1][j+1]
	x4, y4 := g.X[i][j+1], g.Y[i][j+1]
	return 0.5 * math.Abs((x1*y2-x2*y1)+(x2*y3-x3*y2)+(x3*y4-x4*y3)+(x4*y1-x1*y4))
}

// CellVolume returns the cell volume: planar area for 2-D grids, or the
// Pappus volume (area times 2*pi*centroid radius, with the 2*pi dropped as a
// common factor) for axisymmetric grids.
func (g *Grid2D) CellVolume(i, j int) float64 {
	a := g.CellArea(i, j)
	if !g.Axisymmetric {
		return a
	}
	_, yc := g.CellCenter(i, j)
	if yc < 1e-12 {
		yc = 1e-12
	}
	return a * yc
}

// FaceI returns the face between cells (i-1,j) and (i,j): the area vector
// (Sx, Sy) pointing in the +i direction with magnitude equal to the face
// length (times mean radius when axisymmetric).
func (g *Grid2D) FaceI(i, j int) (sx, sy float64) {
	// Face nodes: (i,j) - (i,j+1).
	dx := g.X[i][j+1] - g.X[i][j]
	dy := g.Y[i][j+1] - g.Y[i][j]
	sx, sy = dy, -dx // rotate -90 deg: normal points toward +i
	if g.Axisymmetric {
		rm := 0.5 * (g.Y[i][j+1] + g.Y[i][j])
		if rm < 1e-12 {
			rm = 1e-12
		}
		sx *= rm
		sy *= rm
	}
	return
}

// FaceJ returns the face between cells (i,j-1) and (i,j): the area vector
// pointing in the +j direction.
func (g *Grid2D) FaceJ(i, j int) (sx, sy float64) {
	// Face nodes: (i,j) - (i+1,j).
	dx := g.X[i+1][j] - g.X[i][j]
	dy := g.Y[i+1][j] - g.Y[i][j]
	sx, sy = -dy, dx // rotate +90 deg: normal points toward +j
	if g.Axisymmetric {
		rm := 0.5 * (g.Y[i+1][j] + g.Y[i][j])
		if rm < 1e-12 {
			rm = 1e-12
		}
		sx *= rm
		sy *= rm
	}
	return
}

// WallDistance returns the normal distance from the wall to the outer
// boundary along grid line i.
func (g *Grid2D) WallDistance(i int) float64 {
	dx := g.X[i][g.NJ] - g.X[i][0]
	dy := g.Y[i][g.NJ] - g.Y[i][0]
	return math.Hypot(dx, dy)
}
