package grid

import (
	"math"
	"testing"

	"cataero/internal/geometry"
)

func sphereGrid(t *testing.T, ni, nj int) *Grid2D {
	t.Helper()
	b := geometry.NewSphere(1.0)
	g, err := NewBlunt(b, b.MaxS(), ni, nj, func(s float64) float64 { return 0.3 }, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBluntGridShape(t *testing.T) {
	g := sphereGrid(t, 10, 20)
	if len(g.X) != 11 || len(g.X[0]) != 21 {
		t.Fatalf("node array shape %dx%d", len(g.X), len(g.X[0]))
	}
	// Wall nodes lie on the sphere.
	for i := 0; i <= g.NI; i++ {
		r := math.Hypot(g.X[i][0]-1.0, g.Y[i][0])
		if math.Abs(r-1.0) > 1e-9 {
			t.Errorf("wall node %d off sphere: r=%g", i, r)
		}
	}
	// Outer nodes at the prescribed standoff.
	for i := 0; i <= g.NI; i++ {
		if d := g.WallDistance(i); math.Abs(d-0.3) > 1e-9 {
			t.Errorf("standoff at %d: %g want 0.3", i, d)
		}
	}
	// Stagnation line points upstream (outer node has x < wall x).
	if g.X[0][g.NJ] >= g.X[0][0] {
		t.Error("outer boundary not upstream of the nose")
	}
}

func TestBluntGridWallClustering(t *testing.T) {
	g := sphereGrid(t, 6, 30)
	// First wall spacing much smaller than uniform.
	d0 := math.Hypot(g.X[0][1]-g.X[0][0], g.Y[0][1]-g.Y[0][0])
	uniform := 0.3 / 30
	if d0 >= uniform {
		t.Errorf("no wall clustering: d0=%g uniform=%g", d0, uniform)
	}
}

func TestCellAreasPositive(t *testing.T) {
	g := sphereGrid(t, 12, 16)
	for i := 0; i < g.NI; i++ {
		for j := 0; j < g.NJ; j++ {
			if a := g.CellArea(i, j); a <= 0 {
				t.Fatalf("cell (%d,%d) area %g", i, j, a)
			}
			if v := g.CellVolume(i, j); v <= 0 {
				t.Fatalf("cell (%d,%d) volume %g", i, j, v)
			}
		}
	}
}

func TestAxisymmetricVolumeLarger(t *testing.T) {
	g := sphereGrid(t, 8, 8)
	aPlanar := g.CellVolume(4, 4)
	g.Axisymmetric = true
	aAxi := g.CellVolume(4, 4)
	_, yc := g.CellCenter(4, 4)
	if math.Abs(aAxi-aPlanar*yc) > 1e-12*aAxi {
		t.Errorf("axisymmetric volume %g want %g", aAxi, aPlanar*yc)
	}
}

// Divergence-free test: the face vectors of every closed cell sum to zero
// (planar case), the discrete Gauss identity every FV scheme relies on.
func TestFaceVectorsClose(t *testing.T) {
	g := sphereGrid(t, 9, 11)
	for i := 0; i < g.NI; i++ {
		for j := 0; j < g.NJ; j++ {
			// Outward fluxes: +i face minus -i face, +j minus -j.
			sxW, syW := g.FaceI(i, j)
			sxE, syE := g.FaceI(i+1, j)
			sxS, syS := g.FaceJ(i, j)
			sxN, syN := g.FaceJ(i, j+1)
			cx := sxE - sxW + sxN - sxS
			cy := syE - syW + syN - syS
			if math.Abs(cx) > 1e-12 || math.Abs(cy) > 1e-12 {
				t.Fatalf("cell (%d,%d) not closed: (%g,%g)", i, j, cx, cy)
			}
		}
	}
}

func TestGridErrors(t *testing.T) {
	b := geometry.NewSphere(1)
	if _, err := NewBlunt(b, b.MaxS(), 1, 5, func(s float64) float64 { return 0.1 }, 1.2); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := NewBlunt(b, 100, 5, 5, func(s float64) float64 { return 0.1 }, 1.2); err == nil {
		t.Error("sMax beyond body accepted")
	}
	if _, err := NewBlunt(b, b.MaxS(), 5, 5, func(s float64) float64 { return -1 }, 1.2); err == nil {
		t.Error("negative standoff accepted")
	}
}

func TestVariableStandoff(t *testing.T) {
	b := geometry.NewSphere(0.5)
	g, err := NewBlunt(b, b.MaxS(), 8, 8, func(s float64) float64 {
		return 0.1 + 0.2*s // grows along the body like a real shock layer
	}, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	if g.WallDistance(8) <= g.WallDistance(0) {
		t.Error("standoff should grow along the body")
	}
}
