package fvm

import (
	"math"
	"math/rand"
	"testing"

	"cataero/internal/gas"
)

func randPrim(r *rand.Rand) Prim {
	rho := 0.05 + r.Float64()*2
	p := 1e3 + r.Float64()*2e5
	return Prim{
		Rho: rho,
		U:   r.Float64()*4000 - 2000,
		V:   r.Float64()*2000 - 1000,
		P:   p,
		T:   200 + r.Float64()*5000,
		A:   math.Sqrt(1.4 * p / rho),
		E:   p / (0.4 * rho),
	}
}

// Every registered kernel must be consistent: F(q, q, n) equals the
// area-scaled physical flux.
func TestFluxKernelsConsistency(t *testing.T) {
	names := FluxKernels()
	if len(names) < 2 {
		t.Fatalf("want at least two registered kernels, have %v", names)
	}
	r := rand.New(rand.NewSource(7))
	for _, name := range names {
		k, err := FluxKernelFor(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			q := randPrim(r)
			th := r.Float64() * 2 * math.Pi
			nx, ny := math.Cos(th), math.Sin(th)
			area := 0.1 + r.Float64()*3
			f := faceFlux(k, q, q, nx, ny, area)
			want := physFlux(q, nx, ny)
			for c := 0; c < 4; c++ {
				if math.Abs(f[c]-area*want[c]) > 1e-8*(math.Abs(area*want[c])+1) {
					t.Fatalf("%s consistency, component %d: %g want %g", name, c, f[c], area*want[c])
				}
			}
		}
	}
}

// Every registered kernel must be conservative across a face:
// F(L, R, n) == -F(R, L, -n), so the flux leaving one cell is exactly the
// flux entering its neighbor regardless of which side assembles it.
func TestFluxKernelsSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, name := range FluxKernels() {
		k, err := FluxKernelFor(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			L, R := randPrim(r), randPrim(r)
			th := r.Float64() * 2 * math.Pi
			nx, ny := math.Cos(th), math.Sin(th)
			area := 0.1 + r.Float64()*3
			f := faceFlux(k, L, R, nx, ny, area)
			g := faceFlux(k, R, L, -nx, -ny, area)
			for c := 0; c < 4; c++ {
				scale := math.Abs(f[c]) + math.Abs(g[c]) + 1
				if math.Abs(f[c]+g[c]) > 1e-8*scale {
					t.Fatalf("%s symmetry, trial %d component %d: F=%g -F'=%g", name, trial, c, f[c], -g[c])
				}
			}
		}
	}
}

func TestFluxKernelRegistry(t *testing.T) {
	for _, want := range []string{"hlle", "hlle-ef", "hllc", "ausm+", "ausm+up"} {
		if _, err := FluxKernelFor(want); err != nil {
			t.Errorf("kernel %q missing: %v", want, err)
		}
	}
	if k, err := FluxKernelFor(""); err != nil || k.Name() != DefaultFlux {
		t.Errorf("empty name should resolve to %q, got %v, %v", DefaultFlux, k, err)
	}
	if _, err := FluxKernelFor("nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := New(nil, Options{Gas: gas.NewIdealAir(), Flux: "nope"}); err == nil {
		t.Error("solver accepted unknown kernel")
	}
}

// Every kernel must capture the M=6 sphere shock with the right pitot
// pressure — the end-to-end guarantee that kernels are interchangeable.
func TestFluxKernelsShockCapture(t *testing.T) {
	for _, name := range FluxKernels() {
		name := name
		t.Run(name, func(t *testing.T) {
			s := bluntSolverFlux(t, name)
			defer s.Close()
			if _, err := marchDrop(s, 3000, 1e-3); err != nil {
				t.Fatal(err)
			}
			// Rayleigh pitot pressure for M=6, gamma=1.4: p02/p1 = 46.81.
			q := s.Primitive(0, 0)
			if math.Abs(q.P/100-46.81) > 6 {
				t.Errorf("stagnation pressure ratio %g want ~46.8", q.P/100)
			}
		})
	}
}

func bluntSolverFlux(t *testing.T, flux string) *Solver {
	t.Helper()
	s := bluntSolver(t, gas.NewIdealAir(), 6, true)
	s.Close()
	ns, err := New(s.G, func() Options { o := s.Opts; o.Flux = flux; return o }())
	if err != nil {
		t.Fatal(err)
	}
	return ns
}
