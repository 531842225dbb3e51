package fvm

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cataero/internal/gas"
	"cataero/internal/geometry"
	"cataero/internal/grid"
)

// benchSolver builds an NS-like axisymmetric viscous solver at the Fig. 9
// grid size so BenchmarkStep tracks the real per-time-step cost of the
// hemisphere NS hot path (flux assembly, time steps, two RK stages).
func benchSolver(b *testing.B, viscous bool) *Solver {
	return benchSolverTS(b, viscous, "")
}

// benchSolverTS is benchSolver with an explicit time-integrator choice. The
// viscous configuration is ReferenceViscousCase, the case TestStepZeroAlloc
// and TestADIStepZeroAlloc hold at 0 allocs/op.
func benchSolverTS(b *testing.B, viscous bool, ts string) *Solver {
	b.Helper()
	if viscous {
		g, o, err := ReferenceViscousCase(20, 32, ts)
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(g, o)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	body := geometry.NewSphere(0.0127)
	g, err := grid.NewBlunt(body, body.MaxS(), 20, 32, func(s float64) float64 {
		return 0.35*0.0127 + 0.3*s
	}, 1.08)
	if err != nil {
		b.Fatal(err)
	}
	g.Axisymmetric = true
	o := Options{
		Gas:          gas.NewIdealAir(),
		FreestreamV:  [2]float64{6 * math.Sqrt(1.4*287.05*217), 0},
		FreestreamPT: [2]float64{550, 217},
		CFL:          0.4,
		MUSCL:        true,
		TimeStepping: ts,
	}
	s, err := New(g, o)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStepEuler measures one explicit time step of the inviscid path.
func BenchmarkStepEuler(b *testing.B) {
	s := benchSolver(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.Step(); math.IsNaN(r) {
			b.Fatal("NaN residual")
		}
	}
}

// BenchmarkStepViscous measures one explicit time step of the thin-layer
// viscous path (the Fig. 9 NS configuration).
func BenchmarkStepViscous(b *testing.B) {
	s := benchSolver(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.Step(); math.IsNaN(r) {
			b.Fatal("NaN residual")
		}
	}
}

// BenchmarkStepImplicit measures one line-implicit time step of the viscous
// path: full residual plus the per-line block-tridiagonal solves.
func BenchmarkStepImplicit(b *testing.B) {
	s := benchSolverTS(b, true, "implicit")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.Step(); math.IsNaN(r) {
			b.Fatal("NaN residual")
		}
	}
}

// BenchmarkStepImplicitADI measures one alternating-direction implicit step:
// the j-line pass of BenchmarkStepImplicit plus a residual refresh and the
// streamwise i-line block-tridiagonal pass.
func BenchmarkStepImplicitADI(b *testing.B) {
	g, o, err := ReferenceViscousCase(20, 32, TimeSteppingImplicit)
	if err != nil {
		b.Fatal(err)
	}
	o.ImplicitSweep = ImplicitSweepADI
	s, err := New(g, o)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := s.Step(); math.IsNaN(r) {
			b.Fatal("NaN residual")
		}
	}
}

// benchSolveViscous converges the reference viscous (Fig. 9 class) case at
// the given grid size: same gas and tolerance across integrators and
// schedules, so the benchmarks compare only the marching strategy.
func benchSolveViscous(b *testing.B, ni, nj int, ts string, sq SequenceOptions) {
	b.Helper()
	g, o, err := ReferenceViscousCase(ni, nj, ts)
	if err != nil {
		b.Fatal(err)
	}
	steps := 0
	o.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) { steps++ }
	s, _, err := SolveMultilevel(context.Background(), g, o, 6000, 5e-4, sq)
	if err != nil {
		b.Fatal(err)
	}
	s.Close()
	b.ReportMetric(float64(steps), "steps/op")
}

// benchSizes are the grid sizes the Solve benchmarks sweep: the Fig. 9
// reference (20x32) and its refinements. The multilevel win over
// single-level implicit grows with resolution — the coarse levels absorb
// more of the transient the more the fine grid costs.
var benchSizes = [][2]int{{20, 32}, {40, 64}, {80, 128}}

// BenchmarkSolveExplicit converges the reference viscous case with the
// explicit two-stage integrator — the baseline the line-implicit scheme has
// to beat.
func BenchmarkSolveExplicit(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSolveViscous(b, 20, 32, "explicit", SequenceOptions{})
	}
}

// BenchmarkSolveImplicit converges the viscous case with single-level
// line-implicit (DPLR-style) time stepping at each benchmark size: the
// wall-normal CFL restriction is removed, so the clustered viscous grid
// converges in several-fold fewer, modestly more expensive steps. The
// 20x32 sub-benchmark is the historical BenchmarkSolveImplicit case.
func BenchmarkSolveImplicit(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSolveViscous(b, sz[0], sz[1], "implicit", SequenceOptions{})
			}
		})
	}
}

// BenchmarkSolveMultigrid converges the same viscous case through the
// multilevel driver (3-level cascade, line-implicit smoothing on every
// level) — the headline comparison against BenchmarkSolveImplicit at the
// same sizes: ~1.7x at 40x64 and ~2.3x at 80x128. The 20x32 grid is too
// small to amortize the hierarchy and runs ~15% behind single-level — the
// crossover sits between 20x32 and 40x64.
func BenchmarkSolveMultigrid(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(fmt.Sprintf("%dx%d", sz[0], sz[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSolveViscous(b, sz[0], sz[1], "implicit", SequenceOptions{Levels: 3})
			}
		})
	}
}

// BenchmarkSolveSlender runs the high-aspect-ratio slender case under both
// implicit sweep schedules. The steps/op metric is the headline: wall-normal
// lines alone stall against the streamwise coupling and ride the step cap,
// while the alternating-direction schedule converges outright.
func BenchmarkSolveSlender(b *testing.B) {
	for _, sweep := range []string{ImplicitSweepJLine, ImplicitSweepADI} {
		b.Run(sweep, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, o, err := ReferenceSlenderCase(64, 12, sweep)
				if err != nil {
					b.Fatal(err)
				}
				steps := 0
				o.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) { steps++ }
				s, _, err := SolveMultilevel(context.Background(), g, o, 2000, 5e-4, SequenceOptions{})
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
				b.ReportMetric(float64(steps), "steps/op")
			}
		})
	}
}

func benchSolveCase(b *testing.B) (*grid.Grid2D, Options) {
	b.Helper()
	body := geometry.NewSphere(1.0)
	g, err := grid.NewBlunt(body, body.MaxS(), 16, 24, func(s float64) float64 {
		return 0.35 + 0.35*s
	}, 1.3)
	if err != nil {
		b.Fatal(err)
	}
	g.Axisymmetric = true
	aInf := math.Sqrt(1.4 * 287.05 * 250)
	return g, Options{
		Gas:          gas.NewIdealAir(),
		FreestreamV:  [2]float64{6 * aInf, 0},
		FreestreamPT: [2]float64{100, 250},
		CFL:          0.6,
		MUSCL:        true,
	}
}

// BenchmarkSolveFineOnly converges the M=6 sphere on the fine grid from
// freestream — the baseline a grid-sequenced solve has to beat.
func BenchmarkSolveFineOnly(b *testing.B) {
	g, o := benchSolveCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _, err := SolveMultilevel(context.Background(), g, o, 6000, 1e-3, SequenceOptions{})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkSolveSequenced converges the same case through the two-level
// cascade: the coarse level establishes the shock cheaply, and the fine
// level finishes to the same absolute residual a freestream-started fine
// solve reaches at the 1e-3 drop.
func BenchmarkSolveSequenced(b *testing.B) {
	g, o := benchSolveCase(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _, err := SolveMultilevel(context.Background(), g, o, 6000, 1e-3, SequenceOptions{Levels: 2})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
