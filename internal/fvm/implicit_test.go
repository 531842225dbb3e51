package fvm

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"cataero/internal/gas"
	"cataero/internal/geometry"
	"cataero/internal/grid"
)

// viscousCase builds the reference Fig. 9-class viscous solver
// (ReferenceViscousCase at 20x32) with the given integrator and CFL ramp.
func viscousCase(t testing.TB, ts string, ramp CFLRamp) *Solver {
	t.Helper()
	g, o, err := ReferenceViscousCase(20, 32, ts)
	if err != nil {
		t.Fatal(err)
	}
	o.CFLRamp = ramp
	s, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// inviscidCase builds a small Mach 6 inviscid sphere solver.
func inviscidCase(t testing.TB, ts string) *Solver {
	t.Helper()
	body := geometry.NewSphere(1.0)
	g, err := grid.NewBlunt(body, body.MaxS(), 16, 24, func(s float64) float64 {
		return 0.35 + 0.35*s
	}, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	g.Axisymmetric = true
	aInf := math.Sqrt(1.4 * 287.05 * 250)
	s, err := New(g, Options{
		Gas:          gas.NewIdealAir(),
		FreestreamV:  [2]float64{6 * aInf, 0},
		FreestreamPT: [2]float64{100, 250},
		CFL:          0.6,
		MUSCL:        true,
		TimeStepping: ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIntegratorRegistry(t *testing.T) {
	names := Integrators()
	want := map[string]bool{"explicit": false, "implicit": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("integrator %q not registered (have %v)", n, names)
		}
	}
	g, _ := grid.NewBlunt(geometry.NewSphere(1), geometry.NewSphere(1).MaxS(), 6, 8,
		func(s float64) float64 { return 0.5 + 0.4*s }, 1.3)
	for _, ts := range append(names, "") {
		s, err := New(g, Options{Gas: gas.NewIdealAir(), FreestreamV: [2]float64{600, 0},
			FreestreamPT: [2]float64{100, 250}, TimeStepping: ts})
		if err != nil {
			t.Errorf("TimeStepping %q: %v", ts, err)
			continue
		}
		if implicit := s.imp != nil; implicit != (ts == TimeSteppingImplicit) {
			t.Errorf("TimeStepping %q built the implicit integrator: %v", ts, implicit)
		}
		s.Close()
	}
	if _, err := New(g, Options{Gas: gas.NewIdealAir(), FreestreamV: [2]float64{600, 0},
		FreestreamPT: [2]float64{100, 250}, TimeStepping: "bogus"}); err == nil || !strings.Contains(err.Error(), "implicit") {
		t.Errorf("New should reject an unknown TimeStepping name with the valid list, got %v", err)
	}
}

func TestCFLRampDefaults(t *testing.T) {
	r := CFLRamp{}.withDefaults()
	if r != DefaultCFLRamp {
		t.Errorf("zero ramp = %+v, want %+v", r, DefaultCFLRamp)
	}
	r = CFLRamp{Start: 5, Growth: 1.1, Max: 40}.withDefaults()
	if r.Start != 5 || r.Growth != 1.1 || r.Max != 40 {
		t.Errorf("explicit ramp altered: %+v", r)
	}
	// A Max below Start is floored at Start.
	r = CFLRamp{Start: 500, Growth: 1.1}.withDefaults()
	if r.Max < r.Start {
		t.Errorf("Max %g below Start %g", r.Max, r.Start)
	}
	// An explicitly conservative Max is respected (floored at Start, not
	// replaced by the default), and Growth 1 means hold constant.
	r = CFLRamp{Max: 1.5, Growth: 1}.withDefaults()
	if r.Max != r.Start || r.Max > 2 {
		t.Errorf("explicit low Max rewritten: %+v", r)
	}
	if r.Growth != 1 {
		t.Errorf("Growth 1 (hold) rewritten to %g", r.Growth)
	}
}

// idealDecode converts a conserved state to primitives through the ideal-gas
// EOS, for finite-difference probes.
func idealDecode(g *gas.Ideal, u Cons) Prim {
	rho := u[0]
	vx, vy := u[1]/rho, u[2]/rho
	e := u[3]/rho - 0.5*(vx*vx+vy*vy)
	p, T, a, err := g.PrimState(rho, e)
	if err != nil {
		panic(err)
	}
	return Prim{Rho: rho, U: vx, V: vy, P: p, T: T, A: a, E: e}
}

// jacStates are the representative states the Jacobian probes run at:
// subsonic boundary-layer-like and supersonic post-shock-like.
func jacStates() []Prim {
	g := gas.NewIdealAir()
	out := []Prim{}
	for _, v := range [][2]float64{{240, 300}, {1400, -350}, {0, 0}} {
		q := Prim{Rho: 0.034, U: v[0], V: v[1]}
		q.E = 287.05 / 0.4 * 1561
		q.P, q.T, q.A, _ = g.PrimState(q.Rho, q.E)
		out = append(out, q)
	}
	return out
}

// TestJacobianMatchesPhysFluxFD verifies the analytic flux Jacobian the
// implicit LHS is assembled from against central finite differences of the
// physical flux, component by component.
func TestJacobianMatchesPhysFluxFD(t *testing.T) {
	g := gas.NewIdealAir()
	nx, ny := -0.787, 0.617
	for _, q := range jacStates() {
		u0 := consOf(q)
		var jac [16]float64
		jacN(jac[:], q, nx, ny, 1.0)
		fluxScale := q.Rho * (q.A + math.Hypot(q.U, q.V))
		for col := 0; col < 4; col++ {
			h := 1e-6 * (math.Abs(u0[col]) + 1e-6*fluxScale)
			up, um := u0, u0
			up[col] += h
			um[col] -= h
			fp := physFlux(idealDecode(g, up), nx, ny)
			fm := physFlux(idealDecode(g, um), nx, ny)
			for row := 0; row < 4; row++ {
				fd := (fp[row] - fm[row]) / (2 * h)
				an := jac[row*4+col]
				// Scale rows into comparable units before comparing.
				scale := (math.Abs(q.U) + math.Abs(q.V) + q.A) * rowScale(q, row) / colScale(q, col)
				if math.Abs(fd-an) > 1e-4*scale {
					t.Errorf("state u=%g v=%g: jac[%d][%d] = %g, FD %g", q.U, q.V, row, col, an, fd)
				}
			}
		}
	}
}

func rowScale(q Prim, r int) float64 {
	v := q.A + math.Hypot(q.U, q.V)
	switch r {
	case 0:
		return 1
	case 3:
		return v * v
	}
	return v
}

func colScale(q Prim, c int) float64 { return rowScale(q, c) }

// TestImplicitLHSConsistencyPerKernel verifies, for every registered flux
// kernel, that the implicit LHS linearization is consistent with the kernel:
// at a smooth state (L = R = q) the kernel flux is the physical flux, so the
// sum of the two one-sided LHS Jacobians ½(S·A+λI) + ½(S·A−λI) = S·A must
// equal the finite-difference derivative of q → Flux(q, q).
func TestImplicitLHSConsistencyPerKernel(t *testing.T) {
	g := gas.NewIdealAir()
	nx, ny := 0.6, 0.8
	const area = 2.5
	for _, name := range FluxKernels() {
		k, err := FluxKernelFor(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range jacStates() {
			u0 := consOf(q)
			var jac [16]float64
			jacN(jac[:], q, nx, ny, area)
			fluxScale := q.Rho * (q.A + math.Hypot(q.U, q.V))
			for col := 0; col < 4; col++ {
				h := 1e-6 * (math.Abs(u0[col]) + 1e-6*fluxScale)
				up, um := u0, u0
				up[col] += h
				um[col] -= h
				qp, qm := idealDecode(g, up), idealDecode(g, um)
				fp := faceFlux(k, qp, qp, nx, ny, area)
				fm := faceFlux(k, qm, qm, nx, ny, area)
				for row := 0; row < 4; row++ {
					fd := (fp[row] - fm[row]) / (2 * h)
					an := jac[row*4+col]
					scale := area * (math.Abs(q.U) + math.Abs(q.V) + q.A) * rowScale(q, row) / colScale(q, col)
					if math.Abs(fd-an) > 2e-3*scale {
						t.Errorf("%s state u=%g v=%g: dF[%d]/dU[%d] = %g, LHS Jacobian %g",
							name, q.U, q.V, row, col, fd, an)
					}
				}
			}
		}
	}
}

// marchTo steps s until its residual falls below the absolute target or
// maxSteps is reached, returning the last residual.
func marchTo(s *Solver, maxSteps int, target float64) (float64, error) {
	res := 0.0
	for n := 0; n < maxSteps; n++ {
		if res = s.Step(); math.IsNaN(res) {
			return res, fmt.Errorf("residual NaN at step %d", n)
		}
		if res < target {
			break
		}
	}
	return res, nil
}

// marchDrop steps a solver a test already holds until its residual falls
// by dropTol below the first step's, or maxSteps steps are taken: the stop
// test of a one-level SolveMultilevel. Returns the last residual.
func marchDrop(s *Solver, maxSteps int, dropTol float64) (float64, error) {
	r0 := s.Step()
	if math.IsNaN(r0) {
		return r0, fmt.Errorf("residual NaN at the first step")
	}
	return marchTo(s, maxSteps-1, r0*dropTol)
}

// TestExplicitImplicitEquivalence drives the same inviscid case to the same
// absolute residual target with both integrators and requires the converged
// wall states to agree: the integrators share one discrete steady problem,
// so the answers must match within the leftover-transient tolerance.
func TestExplicitImplicitEquivalence(t *testing.T) {
	ref := inviscidCase(t, "explicit")
	r0 := ref.Step()
	ref.Close()
	if math.IsNaN(r0) || r0 <= 0 {
		t.Fatalf("calibration residual %g", r0)
	}
	target := r0 * 1e-3

	se := inviscidCase(t, "explicit")
	defer se.Close()
	if res, err := marchTo(se, 8000, target); err != nil || res > target {
		t.Fatalf("explicit: res=%g err=%v", res, err)
	}
	si := inviscidCase(t, "implicit")
	defer si.Close()
	if res, err := marchTo(si, 8000, target); err != nil || res > target {
		t.Fatalf("implicit: res=%g err=%v", res, err)
	}

	pe := se.WallPressure()
	pi := si.WallPressure()
	for i := range pe {
		if rel := math.Abs(pe[i]-pi[i]) / pe[i]; rel > 0.02 {
			t.Errorf("wall pressure station %d: explicit %g, implicit %g (rel %.3f)", i, pe[i], pi[i], rel)
		}
	}
	xe, ye := se.ShockLocus(2.5)
	xi, yi := si.ShockLocus(2.5)
	de := math.Hypot(xe[0]-se.G.X[0][0], ye[0]-se.G.Y[0][0])
	di := math.Hypot(xi[0]-si.G.X[0][0], yi[0]-si.G.Y[0][0])
	if rel := math.Abs(de-di) / de; rel > 0.05 {
		t.Errorf("standoff: explicit %g, implicit %g", de, di)
	}
}

// TestImplicitStepCountAdvantage requires the line-implicit integrator to
// converge the reference viscous case in at most a fifth of the explicit
// step count — the headline acceptance criterion of the scheme.
func TestImplicitStepCountAdvantage(t *testing.T) {
	run := func(ts string) int {
		g, o, err := ReferenceViscousCase(20, 32, ts)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		o.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) { steps = step }
		s, _, err := SolveMultilevel(context.Background(), g, o, 6000, 5e-4, SequenceOptions{})
		if err != nil {
			t.Fatalf("%s: %v", ts, err)
		}
		s.Close()
		return steps
	}
	exp := run("explicit")
	imp := run("implicit")
	t.Logf("explicit %d steps, implicit %d steps (%.1fx)", exp, imp, float64(exp)/float64(imp))
	if imp*5 > exp {
		t.Errorf("implicit took %d steps, want <= explicit/5 = %d", imp, exp/5)
	}
}

// TestImplicitDivergenceFallback pins the ramp at an absurd CFL so the line
// updates leave the physical state space: every line must fall back to the
// explicit stage, the march must stay finite, and the fallback counter must
// record the events.
func TestImplicitDivergenceFallback(t *testing.T) {
	s := viscousCase(t, "implicit", CFLRamp{Start: 1e12, Growth: 1.0000001, Max: 1e12})
	defer s.Close()
	st := s.imp
	for n := 0; n < 5; n++ {
		if r := s.Step(); math.IsNaN(r) {
			t.Fatalf("residual NaN at step %d", n)
		}
	}
	if st.fallbacks == 0 {
		t.Error("expected diverging lines to fall back to the explicit stage")
	}
	// The fallback halves the working CFL; it must stay within the ramp.
	if st.cfl < st.ramp.Start/2 {
		t.Errorf("working CFL %g fell below the ramp start", st.cfl)
	}
	for i := 0; i < s.ni; i++ {
		for j := 0; j < s.nj; j++ {
			q := s.Primitive(i, j)
			if math.IsNaN(q.Rho) || math.IsNaN(q.P) {
				t.Fatalf("state NaN at (%d,%d) after fallback steps", i, j)
			}
		}
	}
}

// TestStepZeroAlloc verifies the hot loop allocates nothing per step for
// either integrator — scratch slices, sweep closures and block-tridiagonal
// workspaces are all hoisted to construction time.
func TestStepZeroAlloc(t *testing.T) {
	for _, ts := range []string{"explicit", "implicit"} {
		s := viscousCase(t, ts, CFLRamp{})
		s.Step() // warm up (lazy growth inside gas tables etc.)
		allocs := testing.AllocsPerRun(10, func() {
			if r := s.Step(); math.IsNaN(r) {
				t.Fatal("NaN residual")
			}
		})
		if allocs > 0.5 {
			t.Errorf("%s Step: %.1f allocs/op, want 0", ts, allocs)
		}
		s.Close()
	}
}

// TestSolveSequencedImplicit runs a grid-sequenced solve with implicit
// stepping on both levels and checks it reaches the equivalent residual.
func TestSolveSequencedImplicit(t *testing.T) {
	body := geometry.NewSphere(1.0)
	g, err := grid.NewBlunt(body, body.MaxS(), 16, 24, func(s float64) float64 {
		return 0.35 + 0.35*s
	}, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	g.Axisymmetric = true
	aInf := math.Sqrt(1.4 * 287.05 * 250)
	o := Options{
		Gas:          gas.NewIdealAir(),
		FreestreamV:  [2]float64{6 * aInf, 0},
		FreestreamPT: [2]float64{100, 250},
		CFL:          0.6,
		MUSCL:        true,
		TimeStepping: "implicit",
	}
	s, res, err := SolveMultilevel(context.Background(), g, o, 6000, 1e-3, SequenceOptions{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if math.IsNaN(res) || res <= 0 {
		t.Fatalf("sequenced implicit residual %g", res)
	}
	p := s.WallPressure()
	// Stagnation pressure should be near the Rayleigh pitot value.
	pInf, M := 100.0, 6.0
	pt2 := pInf * math.Pow(1.2*M*M, 3.5) * math.Pow(2.4/(2.8*M*M-0.4), 2.5)
	if rel := math.Abs(p[0]-pt2) / pt2; rel > 0.08 {
		t.Errorf("stagnation pressure %g, Rayleigh pitot %g (rel %.3f)", p[0], pt2, rel)
	}
}
