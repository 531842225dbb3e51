package fvm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cataero/internal/grid"
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

// TestBatchFluxMatchesScalar cross-checks every kernel's BatchFlux against
// its scalar reference Flux over randomized pencils: the batched sweep
// mirrors the scalar arithmetic expression-for-expression, so the two
// paths must agree to within a few ulp on every component, including the
// near-vacuum and strong-shock states that exercise the wave-fan branches.
// A kernel without a scalar reference fails. A last pencil of degenerate
// faces (zero normal, zero area, as the metrics store them) must give
// exact zeros.
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
			ref, ok := k.(fluxOracle)
			if !ok {
				t.Fatalf("kernel %s has no scalar reference Flux", name)
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
					want := ref.Flux(L.prim(f), R.prim(f), nrm[3*f], nrm[3*f+1], nrm[3*f+2])
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
			for f := 0; f < n; f++ {
				L.setPrim(f, harshPrim(r))
				R.setPrim(f, harshPrim(r))
			}
			clear(nrm)
			k.BatchFlux(dst, &L, &R, nrm, n)
			for i, v := range dst {
				if v != 0 {
					t.Fatalf("degenerate face %d component %d: flux %g, want 0", i/4, i%4, v)
				}
			}
		})
	}
}

// TestBoundaryFacesMatchScalar recomputes every boundary face flux of a
// marched solve from the scalar reference kernels: the symmetry mirror at
// i = 0, the zero-gradient outflow at i = ni, the wall (the mirrored
// inviscid flux, plus shear and conduction on a no-slip wall) and the
// freestream ghost at j = nj. The solver writes these faces with BatchFlux,
// so they must match the oracles at TestBatchFluxMatchesScalar's tolerance,
// for every kernel, on the reference viscous case and an inviscid
// slip-wall case. The marched state is scattered by up to 1% so that no
// ghost state coincides with its cell.
func TestBoundaryFacesMatchScalar(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T) (*grid.Grid2D, Options)
	}{
		{"viscous", func(t *testing.T) (*grid.Grid2D, Options) {
			g, o, err := ReferenceViscousCase(20, 32, "")
			if err != nil {
				t.Fatal(err)
			}
			return g, o
		}},
		{"slipwall", func(t *testing.T) (*grid.Grid2D, Options) {
			s := inviscidCase(t, "")
			s.Close()
			return s.G, s.Opts
		}},
	}
	for _, name := range FluxKernels() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				g, o := tc.build(t)
				o.Flux = name
				s, err := New(g, o)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for n := 0; n < 5; n++ {
					s.Step()
				}
				r := rand.New(rand.NewSource(5))
				for k := range s.U {
					for c := range s.U[k] {
						s.U[k][c] *= 1 + 0.01*(2*r.Float64()-1)
					}
				}
				s.updatePrimitives()
				s.computeResidual()
				ref, ok := s.flux.(fluxOracle)
				if !ok {
					t.Fatalf("kernel %s has no scalar reference Flux", name)
				}
				check := func(face string, got []float64, want Cons) {
					t.Helper()
					scale := 0.0
					for c := 0; c < 4; c++ {
						scale = math.Max(scale, math.Abs(want[c]))
					}
					for c := 0; c < 4; c++ {
						if d := math.Abs(got[c] - want[c]); d > 1e-13*(scale+1e-300) {
							t.Fatalf("%s component %d: solver %g oracle %g (diff %g)", face, c, got[c], want[c], d)
						}
					}
				}
				ni, nj, met := s.ni, s.nj, s.met
				for j := 0; j < nj; j++ {
					f := j
					n := met.FaceIN[3*f : 3*f+3]
					q := s.prim[j]
					check(fmt.Sprintf("symmetry face j=%d", j), s.fluxI[4*f:],
						ref.Flux(mirror(q, n[0], n[1]), q, n[0], n[1], n[2]))
					f = ni*nj + j
					n = met.FaceIN[3*f : 3*f+3]
					q = s.prim[(ni-1)*nj+j]
					check(fmt.Sprintf("outflow face j=%d", j), s.fluxI[4*f:], ref.Flux(q, q, n[0], n[1], n[2]))
				}
				for i := 0; i < ni; i++ {
					f := i * (nj + 1)
					n := met.FaceJN[3*f : 3*f+3]
					q := s.prim[i*nj]
					want := ref.Flux(mirror(q, n[0], n[1]), q, n[0], n[1], n[2])
					if o.Viscous {
						dn := met.WallHalf[i]
						mu := o.Mu(0.5 * (q.T + o.TWall))
						kth := o.K(0.5 * (q.T + o.TWall))
						want[1] -= mu * q.U / dn * n[2]
						want[2] -= mu * q.V / dn * n[2]
						want[3] -= kth * (q.T - o.TWall) / dn * n[2]
					}
					check(fmt.Sprintf("wall face i=%d", i), s.fluxJ[4*f:], want)
					f += nj
					n = met.FaceJN[3*f : 3*f+3]
					q = s.prim[i*nj+nj-1]
					check(fmt.Sprintf("outer face i=%d", i), s.fluxJ[4*f:], ref.Flux(q, s.pInf, n[0], n[1], n[2]))
				}
			})
		}
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
			for i := range cells {
				u[i] = consOf(cells[i])
			}
			// One pencil spans the ncell+1 faces: unit x normals, unit
			// areas, zero-gradient ghosts at both ends.
			L, R := newFaceStates(ncell+1), newFaceStates(ncell+1)
			nrm := make([]float64, 3*(ncell+1))
			for f := 0; f <= ncell; f++ {
				nrm[3*f], nrm[3*f+2] = 1, 1
			}
			fl := make([]float64, 4*(ncell+1))
			for step := 0; step < steps; step++ {
				for f := 0; f <= ncell; f++ {
					L.setPrim(f, cells[max(f-1, 0)])
					R.setPrim(f, cells[min(f, ncell-1)])
				}
				k.BatchFlux(fl, &L, &R, nrm, ncell+1)
				for i := 0; i < ncell; i++ {
					for c := 0; c < 4; c++ {
						u[i][c] -= dt / dx * (fl[4*(i+1)+c] - fl[4*i+c])
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
