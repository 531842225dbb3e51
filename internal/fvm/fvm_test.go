package fvm

import (
	"context"
	"math"
	"testing"

	"cataero/internal/gas"
	"cataero/internal/geometry"
	"cataero/internal/grid"
	"cataero/internal/shock"
)

func TestHLLEConsistency(t *testing.T) {
	// F(U,U) must equal the physical flux.
	q := Prim{Rho: 1.2, U: 300, V: 50, P: 101325, T: 288, A: 340, E: 2e5}
	f := faceFlux(hlleKernel{}, q, q, 1, 0, 2) // face area 2 in x
	want := physFlux(q, 1, 0)
	for c := 0; c < 4; c++ {
		if math.Abs(f[c]-2*want[c]) > 1e-9*math.Abs(2*want[c])+1e-12 {
			t.Errorf("component %d: %g want %g", c, f[c], 2*want[c])
		}
	}
}

func TestHLLESupersonicUpwinding(t *testing.T) {
	// Fully supersonic left-to-right: flux equals left physical flux.
	L := Prim{Rho: 1, U: 1000, V: 0, P: 1e4, T: 300, A: 200, E: 2e5}
	R := Prim{Rho: 0.5, U: 900, V: 0, P: 5e3, T: 250, A: 180, E: 1.8e5}
	f := faceFlux(hlleKernel{}, L, R, 1, 0, 1)
	want := physFlux(L, 1, 0)
	for c := 0; c < 4; c++ {
		if math.Abs(f[c]-want[c]) > 1e-9*math.Abs(want[c]) {
			t.Errorf("component %d: %g want %g", c, f[c], want[c])
		}
	}
}

func TestMinmod(t *testing.T) {
	if minmod(1, 2) != 1 || minmod(-2, -1) != -1 || minmod(1, -1) != 0 || minmod(0, 5) != 0 {
		t.Error("minmod broken")
	}
}

func TestMirror(t *testing.T) {
	q := Prim{U: 100, V: 50}
	m := mirror(q, 1, 0) // face normal +x
	if m.U != -100 || m.V != 50 {
		t.Errorf("mirror wrong: %+v", m)
	}
}

func bluntSolver(t *testing.T, g gas.Model, mach float64, muscl bool) *Solver {
	t.Helper()
	body := geometry.NewSphere(1.0)
	gr, err := grid.NewBlunt(body, body.MaxS(), 16, 24, func(s float64) float64 {
		return 0.35 + 0.35*s
	}, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	gr.Axisymmetric = true // a sphere, not a cylinder: standoff ~0.15R
	pInf, TInf := 100.0, 250.0
	aInf := math.Sqrt(1.4 * 287.05 * TInf)
	s, err := New(gr, Options{
		Gas:          g,
		FreestreamV:  [2]float64{mach * aInf, 0},
		FreestreamPT: [2]float64{pInf, TInf},
		CFL:          0.6,
		MUSCL:        muscl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFreestreamPreservation(t *testing.T) {
	// With a uniform freestream everywhere and no body influence yet, a
	// single step must not generate spurious disturbances in the interior
	// far from boundaries (discrete geometric conservation).
	s := bluntSolver(t, gas.NewIdealAir(), 3, false)
	// Replace the wall with a transparent outflow for this test by checking
	// only cells away from j=0.
	s.Step()
	for i := 2; i < s.ni-2; i++ {
		for j := s.nj / 2; j < s.nj-1; j++ {
			q := s.Primitive(i, j)
			if math.Abs(q.P-100)/100 > 0.02 {
				t.Fatalf("cell (%d,%d): pressure disturbed %g", i, j, q.P)
			}
		}
	}
}

func TestBluntBodyShockCaptureIdeal(t *testing.T) {
	// Mach 6 sphere: stagnation pressure from the solver should approach
	// the normal-shock + isentropic-compression value (Rayleigh pitot).
	s := bluntSolver(t, gas.NewIdealAir(), 6, true)
	defer s.Close()
	if _, err := marchDrop(s, 4000, 1e-3); err != nil {
		t.Fatal(err)
	}
	q := s.Primitive(0, 0)
	// Rayleigh pitot pressure for M=6, gamma=1.4: p02/p1 = 46.81.
	if math.Abs(q.P/100-46.81) > 5 {
		t.Errorf("stagnation pressure ratio %g want ~46.8", q.P/100)
	}
	// Shock standoff for a sphere at M=6: delta/R ~ 0.1-0.25.
	xs, _ := s.ShockLocus(2)
	standoff := -xs[0] // nose at x=0, shock upstream (negative x)
	if standoff < 0.05 || standoff > 0.3 {
		t.Errorf("standoff %g outside band", standoff)
	}
	// Wall pressure decreases away from the stagnation point.
	wp := s.WallPressure()
	if wp[s.ni-1] > wp[0] {
		t.Errorf("wall pressure not decreasing: %g -> %g", wp[0], wp[s.ni-1])
	}
}

func TestAxisymmetricRunsStable(t *testing.T) {
	body := geometry.NewSphere(0.3)
	gr, err := grid.NewBlunt(body, body.MaxS(), 12, 20, func(s float64) float64 {
		return 0.12 + 0.12*s
	}, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	gr.Axisymmetric = true
	aInf := math.Sqrt(1.4 * 287.05 * 217)
	s, res, err := SolveMultilevel(context.Background(), gr, Options{
		Gas:          gas.NewIdealAir(),
		FreestreamV:  [2]float64{5 * aInf, 0},
		FreestreamPT: [2]float64{500, 217},
		CFL:          0.5,
		MUSCL:        true,
	}, 2500, 1e-3, SequenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if math.IsNaN(res) {
		t.Fatal("NaN residual")
	}
	// Axisymmetric stagnation pressure also near the pitot value (M=5:
	// p02/p1 = 32.65).
	q := s.Primitive(0, 0)
	if math.Abs(q.P/500-32.65) > 4 {
		t.Errorf("axisymmetric pitot ratio %g want ~32.7", q.P/500)
	}
}

func TestEquilibriumGasShockCloser(t *testing.T) {
	// The paper's Fig. 4 physics: a reacting (equilibrium) gas has a denser
	// shock layer and a smaller standoff distance than ideal gas.
	if testing.Short() {
		t.Skip("equilibrium table build in short mode")
	}
	eqm := gas.NewEquilibriumAir()
	tab, err := gas.NewTable(eqm, 1e-5, 0.3, 1e4, 4e7, 36, 36)
	if err != nil {
		t.Fatal(err)
	}
	// 6.7 km/s at 65.5 km density -> strongly reacting. Planar (cylinder)
	// case: the ideal standoff is ~0.45R, so leave generous room.
	body := geometry.NewSphere(1.0)
	gr, err := grid.NewBlunt(body, body.MaxS(), 14, 26, func(s float64) float64 {
		return 0.9 + 0.5*s
	}, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	pInf, TInf := 10.0, 233.0
	solve := func(g gas.Model) *Solver {
		s, _, err := SolveMultilevel(context.Background(), gr, Options{
			Gas:          g,
			FreestreamV:  [2]float64{6700, 0},
			FreestreamPT: [2]float64{pInf, TInf},
			CFL:          0.5,
			MUSCL:        true,
		}, 2500, 1e-3, SequenceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sI := solve(gas.NewIdealAir())
	defer sI.Close()
	sE := solve(tab)
	defer sE.Close()
	xi, _ := sI.ShockLocus(3)
	xe, _ := sE.ShockLocus(3)
	standoffI := -xi[0]
	standoffE := -xe[0]
	if standoffE >= standoffI {
		t.Errorf("equilibrium standoff %g should be below ideal %g", standoffE, standoffI)
	}
	// Equilibrium post-shock density ratio is far higher; check the shock
	// layer density at the nose.
	qI := sI.Primitive(0, s0j(sI))
	qE := sE.Primitive(0, s0j(sE))
	if qE.Rho < 1.3*qI.Rho {
		t.Errorf("equilibrium layer density %g vs ideal %g", qE.Rho, qI.Rho)
	}
	// Equilibrium stagnation temperature far below the ideal value.
	if qE.T > 0.7*qI.T {
		t.Errorf("equilibrium T %g not much cooler than ideal %g", qE.T, qI.T)
	}
	// Quantitative anchor: equilibrium density ratio across the shock
	// matches the RH solution within ~25%.
	m := gas.NewEquilibriumAir()
	st, err := shock.EquilibriumJump(m.Eq, m.Y0, pInf, TInf, 6700)
	if err != nil {
		t.Fatal(err)
	}
	rhoInf := sE.Freestream().Rho
	want := st.Rho / rhoInf
	got := qE.Rho / rhoInf
	if math.Abs(got-want)/want > 0.3 {
		t.Errorf("captured density ratio %g vs RH %g", got, want)
	}
}

// s0j returns a j index just behind the wall (first cell) for nose probing.
func s0j(s *Solver) int { return 0 }

func TestSolverErrors(t *testing.T) {
	body := geometry.NewSphere(1.0)
	gr, _ := grid.NewBlunt(body, body.MaxS(), 4, 4, func(s float64) float64 { return 0.3 }, 1.2)
	if _, err := New(gr, Options{}); err == nil {
		t.Error("missing gas model accepted")
	}
	if _, err := New(gr, Options{Gas: gas.NewIdealAir(), Viscous: true}); err == nil {
		t.Error("viscous without transport laws accepted")
	}
}
