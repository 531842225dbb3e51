package fvm

import (
	"math"
	"math/rand"
	"testing"

	"cataero/internal/gas"
)

// harshPrim draws states from the regimes that stress a flux kernel's
// branches: ordinary flow, near-vacuum, and strong-shock (large pressure
// and density ratio) states, with A and E kept thermodynamically
// consistent (ideal gamma = 1.4) like the solver's primitive cache.
func harshPrim(r *rand.Rand) Prim {
	var rho, p float64
	switch r.Intn(4) {
	case 0: // near-vacuum
		rho = 1e-9 * (1 + r.Float64())
		p = 1e-7 * (1 + r.Float64())
	case 1: // post-strong-shock
		rho = 2 + r.Float64()*6
		p = 1e6 + r.Float64()*5e7
	default:
		rho = 0.05 + r.Float64()*2
		p = 1e3 + r.Float64()*2e5
	}
	a := math.Sqrt(1.4 * p / rho)
	return Prim{
		Rho: rho,
		U:   (r.Float64()*8 - 4) * a, // up to ~M 4 either way
		V:   (r.Float64()*4 - 2) * a,
		P:   p,
		T:   200 + r.Float64()*5000,
		A:   a,
		E:   p / (0.4 * rho),
	}
}

// TestBatchFluxMatchesScalar cross-checks every batched kernel against its
// scalar reference over randomized pencils: the batched sweep mirrors the
// scalar arithmetic expression-for-expression, so the two paths must agree
// to within a few ulp on every component, including the near-vacuum and
// strong-shock states that exercise the wave-fan branches.
func TestBatchFluxMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const n = 64
	for _, name := range FluxKernels() {
		name := name
		t.Run(name, func(t *testing.T) {
			k, err := FluxKernelFor(name)
			if err != nil {
				t.Fatal(err)
			}
			L, R := newFaceStates(n), newFaceStates(n)
			nrm := make([]float64, 3*n)
			dst := make([]float64, 4*n)
			for trial := 0; trial < 40; trial++ {
				for f := 0; f < n; f++ {
					L.setPrim(f, harshPrim(r))
					R.setPrim(f, harshPrim(r))
					th := r.Float64() * 2 * math.Pi
					nrm[3*f] = math.Cos(th)
					nrm[3*f+1] = math.Sin(th)
					nrm[3*f+2] = 0.1 + r.Float64()*3
				}
				k.BatchFlux(dst, &L, &R, nrm, n)
				for f := 0; f < n; f++ {
					want := k.Flux(L.prim(f), R.prim(f), nrm[3*f], nrm[3*f+1], nrm[3*f+2])
					scale := 0.0
					for c := 0; c < 4; c++ {
						if m := math.Abs(want[c]); m > scale {
							scale = m
						}
					}
					for c := 0; c < 4; c++ {
						if d := math.Abs(dst[4*f+c] - want[c]); d > 1e-13*(scale+1e-300) {
							t.Fatalf("trial %d face %d component %d: batched %g scalar %g (diff %g)",
								trial, f, c, dst[4*f+c], want[c], d)
						}
					}
				}
			}
		})
	}
}

// primRUP builds a thermodynamically consistent ideal-air state.
func primRUP(rho, u, p float64) Prim {
	return Prim{Rho: rho, U: u, P: p, T: p / (287.05 * rho),
		A: math.Sqrt(1.4 * p / rho), E: p / (0.4 * rho)}
}

// TestExpansionShockDecays is the entropy regression every registered
// kernel must pass: an entropy-violating stationary expansion shock — the
// time-reverse of a Mach-2 normal shock, whose left and right physical
// fluxes agree exactly — must break up into the physical rarefaction
// instead of persisting. A kernel whose dissipation vanishes at the jump
// (the failure hlle-ef exists to rule out) keeps the discontinuity glued
// in place forever; it must also not replace it with an oscillatory fan
// (the 1-D face of the carbuncle family of pathologies).
func TestExpansionShockDecays(t *testing.T) {
	// Mach-2 stationary normal shock in units a1 = 1: upstream (1.4, 2, 1),
	// downstream (56/15, 3/4, 9/2). Reversed — dense subsonic on the left
	// expanding through the jump to supersonic — is the entropy-violating
	// steady state.
	const gamma = 1.4
	up := primRUP(1.4, 2, 1)
	down := primRUP(1.4*8.0/3.0, 0.75, 4.5)
	jump0 := down.Rho - up.Rho

	for _, name := range FluxKernels() {
		name := name
		t.Run(name, func(t *testing.T) {
			k, err := FluxKernelFor(name)
			if err != nil {
				t.Fatal(err)
			}
			// 400 steps: long enough for the start-up wave the breaking jump
			// sheds (speed u1+a1) to exit the supersonic outflow end, while
			// the fan edges stay interior.
			const ncell, mid, steps = 200, 100, 400
			const dx = 1.0
			dt := 0.4 * dx / (up.U + up.A) // fastest wave is u1 + a1 = 3
			cells := make([]Prim, ncell)
			for i := range cells {
				if i < mid {
					cells[i] = down
				} else {
					cells[i] = up
				}
			}
			u := make([]Cons, ncell)
			fl := make([]Cons, ncell+1)
			for i := range cells {
				u[i] = consOf(cells[i])
			}
			for step := 0; step < steps; step++ {
				for i := 1; i < ncell; i++ {
					fl[i] = k.Flux(cells[i-1], cells[i], 1, 0, 1)
				}
				fl[0] = k.Flux(cells[0], cells[0], 1, 0, 1)
				fl[ncell] = k.Flux(cells[ncell-1], cells[ncell-1], 1, 0, 1)
				for i := 0; i < ncell; i++ {
					for c := 0; c < 4; c++ {
						u[i][c] -= dt / dx * (fl[i+1][c] - fl[i][c])
					}
					rho := u[i][0]
					vx, vy := u[i][1]/rho, u[i][2]/rho
					p := (gamma - 1) * (u[i][3] - 0.5*rho*(vx*vx+vy*vy))
					if !(rho > 0) || !(p > 0) || math.IsNaN(p) {
						t.Fatalf("step %d cell %d: unphysical state rho=%g p=%g", step, i, rho, p)
					}
					cells[i] = primRUP(rho, vx, p)
					cells[i].V = vy
				}
			}
			// The initial jump must have smeared into a fan: no adjacent pair
			// may retain more than half the original discontinuity.
			maxJump := 0.0
			for i := 5; i < ncell-5; i++ {
				if d := math.Abs(cells[i+1].Rho - cells[i].Rho); d > maxJump {
					maxJump = d
				}
				// Gross-ringing band: the fan must stay near the two states,
				// not oscillate. The 10% slack admits the sonic-point glitch
				// and the start-up wave every first-order scheme sheds from
				// the breaking jump; a carbuncle-class instability rings far
				// outside it.
				if cells[i].Rho > down.Rho*1.10 || cells[i].Rho < up.Rho*0.90 {
					t.Fatalf("cell %d: density %g outside [%g, %g] band", i, cells[i].Rho, up.Rho, down.Rho)
				}
			}
			if maxJump > 0.5*jump0 {
				t.Errorf("expansion shock persists: max adjacent density jump %g, initial %g", maxJump, jump0)
			}
		})
	}
}

// TestFrozenLimiterConvergence verifies the frozen-limiter endgame is a
// pure optimization: a solve that freezes the limiter partway down the
// residual history must actually reach the frozen state and converge to
// the same wall pressure distribution as the always-live reference.
func TestFrozenLimiterConvergence(t *testing.T) {
	base := bluntSolver(t, gas.NewIdealAir(), 6, true)
	g, o := base.G, base.Opts
	base.Close()
	// Deep implicit convergence with the smooth limiter: the freeze latches
	// once the shock has settled, so the recorded slopes are the converged
	// ones and the frozen fixed point coincides with the live one.
	o.TimeStepping = TimeSteppingImplicit
	o.Limiter = LimiterVanAlbada
	ref, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Run(4000, 1e-5); err != nil {
		t.Fatal(err)
	}

	o.FreezeLimiterAt = 1e-3
	frz, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	defer frz.Close()
	if _, err := frz.Run(4000, 1e-5); err != nil {
		t.Fatal(err)
	}
	if frz.limMode != limFrozen {
		t.Fatalf("limiter never froze: limMode %d (threshold %g)", frz.limMode, o.FreezeLimiterAt)
	}

	pRef, pFrz := ref.WallPressure(), frz.WallPressure()
	for i := range pRef {
		if rel := math.Abs(pFrz[i]-pRef[i]) / pRef[i]; rel > 0.01 {
			t.Errorf("wall station %d: frozen-limiter pressure %g vs live %g (%.2f%%)",
				i, pFrz[i], pRef[i], 100*rel)
		}
	}
}

// TestFreezeLimiterValidation pins the Options range check and the refit
// reset: out-of-range thresholds fail construction, and a grid transfer
// drops a frozen solver back to live limiting (the recorded slopes belong
// to the old grid).
func TestFreezeLimiterValidation(t *testing.T) {
	s := bluntSolver(t, gas.NewIdealAir(), 6, true)
	g, o := s.G, s.Opts
	s.Close()
	for _, bad := range []float64{-0.1, 1, 1.5} {
		o.FreezeLimiterAt = bad
		if _, err := New(g, o); err == nil {
			t.Errorf("FreezeLimiterAt=%g accepted", bad)
		}
	}
}
