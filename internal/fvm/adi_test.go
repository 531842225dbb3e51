package fvm

import (
	"context"
	"math"
	"testing"

	"cataero/internal/gas"
)

func TestImplicitSweepRegistry(t *testing.T) {
	names := ImplicitSweeps()
	want := map[string]bool{ImplicitSweepJLine: false, ImplicitSweepADI: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("sweep %q not enumerated (have %v)", n, names)
		}
	}
	if DefaultImplicitSweep != ImplicitSweepJLine {
		t.Errorf("default sweep %q, want %q", DefaultImplicitSweep, ImplicitSweepJLine)
	}
	// An unknown sweep fails at construction, and only the implicit
	// integrator consults the knob at all.
	g, o, err := ReferenceViscousCase(8, 12, TimeSteppingImplicit)
	if err != nil {
		t.Fatal(err)
	}
	o.ImplicitSweep = "diagonal"
	if _, err := New(g, o); err == nil {
		t.Error("New accepted an unknown ImplicitSweep")
	}
	for _, sweep := range []string{"", ImplicitSweepJLine, ImplicitSweepADI} {
		g, o, err := ReferenceViscousCase(8, 12, TimeSteppingImplicit)
		if err != nil {
			t.Fatal(err)
		}
		o.ImplicitSweep = sweep
		s, err := New(g, o)
		if err != nil {
			t.Fatalf("sweep %q rejected: %v", sweep, err)
		}
		s.Close()
	}
}

// TestStreamwiseBoundaryLinearizationFD verifies the two boundary
// linearizations the streamwise (i-line) pass folds into its end blocks
// against central finite differences:
//
//   - outflow (i = ni): the zero-gradient ghost makes the exit flux
//     Flux(q, q) = S·F(q), whose derivative is exactly the full Jacobian
//     S·A(q) — the kernel's upwind dissipation cancels at L == R;
//   - symmetry mirror (i = 0): the central half of the mirrored-ghost flux
//     ½(F(mirror(q)) + F(q)) linearizes to ½(A(mirror(q))·M + A(q)), with
//     M the conserved-variable reflection (mirrorCols).
func TestStreamwiseBoundaryLinearizationFD(t *testing.T) {
	g := gas.NewIdealAir()
	nx, ny := 0.92, -0.392 // a representative unit exit normal
	const area = 1.7
	k, err := FluxKernelFor(DefaultFlux)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range jacStates() {
		u0 := consOf(q)
		fluxScale := q.Rho * (q.A + math.Hypot(q.U, q.V))

		// Outflow: FD of q -> Flux(q, q) against the full jacN.
		var jac [16]float64
		jacN(jac[:], q, nx, ny, area)
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
					t.Errorf("outflow state u=%g v=%g: dF[%d]/dU[%d] = %g, linearization %g",
						q.U, q.V, row, col, fd, an)
				}
			}
		}

		// Mirror: FD of q -> ½(F(mirror(q)) + F(q)) against
		// ½(A(mirror(q))·M + A(q)).
		var jm, jp [16]float64
		jacN(jm[:], mirror(q, nx, ny), nx, ny, area)
		mirrorCols(jm[:], nx, ny)
		jacN(jp[:], q, nx, ny, area)
		for col := 0; col < 4; col++ {
			h := 1e-6 * (math.Abs(u0[col]) + 1e-6*fluxScale)
			up, um := u0, u0
			up[col] += h
			um[col] -= h
			qp, qm := idealDecode(g, up), idealDecode(g, um)
			for row := 0; row < 4; row++ {
				fpv := 0.5 * area * (physFlux(mirror(qp, nx, ny), nx, ny)[row] + physFlux(qp, nx, ny)[row])
				fmv := 0.5 * area * (physFlux(mirror(qm, nx, ny), nx, ny)[row] + physFlux(qm, nx, ny)[row])
				fd := (fpv - fmv) / (2 * h)
				an := 0.5 * (jm[row*4+col] + jp[row*4+col])
				scale := area * (math.Abs(q.U) + math.Abs(q.V) + q.A) * rowScale(q, row) / colScale(q, col)
				if math.Abs(fd-an) > 2e-3*scale {
					t.Errorf("mirror state u=%g v=%g: dF[%d]/dU[%d] = %g, linearization %g",
						q.U, q.V, row, col, fd, an)
				}
			}
		}
	}
}

// adiCase builds the reference viscous solver with the given implicit sweep.
func adiCase(t testing.TB, sweep string) *Solver {
	t.Helper()
	g, o, err := ReferenceViscousCase(20, 32, TimeSteppingImplicit)
	if err != nil {
		t.Fatal(err)
	}
	o.ImplicitSweep = sweep
	s, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestADIJlineEquivalence converges the reference viscous case to the same
// absolute residual under both sweep schedules and requires the converged
// states to agree: the sweeps share one discrete steady problem, so the
// wall pressures and the shock standoff must match within the
// leftover-transient tolerance.
func TestADIJlineEquivalence(t *testing.T) {
	ref := adiCase(t, ImplicitSweepJLine)
	r0 := ref.Step()
	ref.Close()
	if math.IsNaN(r0) || r0 <= 0 {
		t.Fatalf("calibration residual %g", r0)
	}
	target := r0 * 5e-4

	sj := adiCase(t, ImplicitSweepJLine)
	defer sj.Close()
	if res, err := marchTo(sj, 8000, target); err != nil || res > target {
		t.Fatalf("jline: res=%g err=%v", res, err)
	}
	sa := adiCase(t, ImplicitSweepADI)
	defer sa.Close()
	if res, err := marchTo(sa, 8000, target); err != nil || res > target {
		t.Fatalf("adi: res=%g err=%v", res, err)
	}

	pj := sj.WallPressure()
	pa := sa.WallPressure()
	for i := range pj {
		if rel := math.Abs(pj[i]-pa[i]) / pj[i]; rel > 0.02 {
			t.Errorf("wall pressure station %d: jline %g, adi %g (rel %.3f)", i, pj[i], pa[i], rel)
		}
	}
	xj, yj := sj.ShockLocus(2.5)
	xa, ya := sa.ShockLocus(2.5)
	dj := math.Hypot(xj[0]-sj.G.X[0][0], yj[0]-sj.G.Y[0][0])
	da := math.Hypot(xa[0]-sa.G.X[0][0], ya[0]-sa.G.Y[0][0])
	if rel := math.Abs(dj-da) / dj; rel > 0.05 {
		t.Errorf("standoff: jline %g, adi %g", dj, da)
	}
}

// TestADIStepCountAdvantageSlender runs the high-aspect-ratio slender case
// under both sweeps: streamwise coupling limits the relaxation there, so
// wall-normal-only stalls its CFL ramp while the alternating-direction
// schedule converges in a fraction of the steps — the case the ADI sweep
// exists for.
func TestADIStepCountAdvantageSlender(t *testing.T) {
	run := func(sweep string) int {
		g, o, err := ReferenceSlenderCase(64, 12, sweep)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		o.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) { steps = step }
		s, _, err := SolveMultilevel(context.Background(), g, o, 2000, 5e-4, SequenceOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sweep, err)
		}
		s.Close()
		return steps
	}
	jline := run(ImplicitSweepJLine)
	adi := run(ImplicitSweepADI)
	t.Logf("slender 64x12: jline %d steps, adi %d steps", jline, adi)
	if 2*adi >= jline {
		t.Errorf("adi took %d steps on the slender case, want < jline/2 = %d", adi, jline/2)
	}
}

// TestADIStepZeroAlloc verifies the alternating-direction step allocates
// nothing per op: the i-line pencils, block planes and workspaces are all
// hoisted to construction, exactly like the j-line pass.
func TestADIStepZeroAlloc(t *testing.T) {
	s := adiCase(t, ImplicitSweepADI)
	defer s.Close()
	s.Step() // warm up lazy growth inside gas tables etc.
	allocs := testing.AllocsPerRun(10, func() {
		if r := s.Step(); math.IsNaN(r) {
			t.Fatal("NaN residual")
		}
	})
	if allocs > 0.5 {
		t.Errorf("adi Step: %.1f allocs/op, want 0", allocs)
	}
}
