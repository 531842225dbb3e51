package cataero

// The benchmark harness regenerates every figure of the paper's evaluation
// (Figs. 1-9) and asserts its qualitative shape: who wins, by roughly what
// factor, and where the crossovers fall. Absolute numbers come from our
// simulated substrate (synthetic atmospheres, RRHO constants), so the
// shape — not the digit — is the reproduction target; EXPERIMENTS.md records
// paper-vs-measured for each.

import (
	"context"
	"math"
	"testing"

	"cataero/internal/shocktube"
)

// BenchmarkFig1FlightDomain: Re-M map of vehicles vs facility envelopes.
func BenchmarkFig1FlightDomain(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		r := Fig1FlightDomain()
		gap = r.GapFraction
		if len(r.Vehicles) < 4 {
			b.Fatal("missing vehicle series")
		}
	}
	b.ReportMetric(gap, "AOTV-gap-fraction")
}

// BenchmarkFig2TitanHeatingPulse: convective & radiative stagnation pulses.
func BenchmarkFig2TitanHeatingPulse(b *testing.B) {
	var peakC, peakR, tC, tR float64
	for i := 0; i < b.N; i++ {
		r, err := Fig2TitanHeatingPulse()
		if err != nil {
			b.Fatal(err)
		}
		peakC, peakR = r.PeakConv, r.PeakRad
		tC, tR = r.TPeakConv, r.TPeakRad
		if peakC <= 0 || peakR <= 0 {
			b.Fatal("missing heating pulse")
		}
	}
	b.ReportMetric(peakC, "peak-qconv-W/cm2")
	b.ReportMetric(peakR, "peak-qrad-W/cm2")
	b.ReportMetric(tR-tC, "rad-peak-lead-s")
	_ = tC
}

// BenchmarkFig3TitanSpeciesProfile: stagnation-line equilibrium composition.
func BenchmarkFig3TitanSpeciesProfile(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		r, err := Fig3TitanSpeciesProfile()
		if err != nil {
			b.Fatal(err)
		}
		delta = r.Delta
		// Fig. 3 shape: N2 dominant at the wall, still the leading molecule
		// in the hot layer; CN and H grow toward the shock.
		n2 := r.Species["N2"]
		cn := r.Species["CN"]
		h := r.Species["H"]
		last := len(n2) - 1
		if n2[0] < 0.8 {
			b.Fatalf("N2 not dominant at the wall: %g", n2[0])
		}
		if n2[last] < 0.2 {
			b.Fatalf("N2 overly dissociated at the shock: %g", n2[last])
		}
		if cn[last] <= cn[0] || h[last] <= h[0] {
			b.Fatal("CN and H should grow toward the shock")
		}
	}
	b.ReportMetric(delta*100, "standoff-cm")
}

// BenchmarkFig4OrbiterShockShape: reacting vs ideal pitch-plane shock.
func BenchmarkFig4OrbiterShockShape(b *testing.B) {
	var dI, dE float64
	for i := 0; i < b.N; i++ {
		r, err := Fig4OrbiterShockShape(1)
		if err != nil {
			b.Fatal(err)
		}
		dI, dE = r.StandoffIdeal, r.StandoffReacting
		if dE >= dI {
			b.Fatalf("reacting shock (%.3g m) must lie closer than ideal (%.3g m)", dE, dI)
		}
	}
	b.ReportMetric(dI, "standoff-ideal-m")
	b.ReportMetric(dE, "standoff-reacting-m")
	b.ReportMetric(dE/dI, "reacting/ideal")
}

// BenchmarkFig5OrbiterGeometry: geometry discretization.
func BenchmarkFig5OrbiterGeometry(b *testing.B) {
	var span float64
	for i := 0; i < b.N; i++ {
		secs := Fig5OrbiterGeometry(40)
		if len(secs) != 40 {
			b.Fatal("bad section count")
		}
		span = 2 * secs[len(secs)-1].HalfWidth
	}
	b.ReportMetric(span, "span-m")
}

// BenchmarkFig6WindwardHeating: equilibrium vs gamma=1.2 vs flight data.
func BenchmarkFig6WindwardHeating(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		r, err := Fig6WindwardHeating()
		if err != nil {
			b.Fatal(err)
		}
		frac = r.CatalysisFraction
		// Fig. 6 shape: heating decays aft; flight data fall below the
		// fully catalytic equilibrium prediction.
		last := len(r.QEquilibrium) - 1
		if r.QEquilibrium[last] >= r.QEquilibrium[0] {
			b.Fatal("equilibrium heating should decay along the body")
		}
		for j := range r.FlightQ {
			if r.FlightQ[j] >= r.QEquilibrium[0]*1.05 {
				b.Fatalf("flight point %d above fully catalytic stagnation level", j)
			}
		}
		if frac >= 1 {
			b.Fatalf("catalysis fraction %g must be below 1", frac)
		}
	}
	b.ReportMetric(frac, "flight/fully-catalytic")
}

// BenchmarkFig7ShockRelaxation: two-temperature relaxation structure.
func BenchmarkFig7ShockRelaxation(b *testing.B) {
	var tFrozen, tEq float64
	for i := 0; i < b.N; i++ {
		r, err := Fig7ShockRelaxation()
		if err != nil {
			b.Fatal(err)
		}
		tFrozen, tEq = r.TFrozen, r.TEq
		// Fig. 7 shape: Tv lags T; both relax toward the equilibrium value;
		// N2 dissociates and electrons appear.
		last := len(r.X) - 1
		if !(r.Tv[0] < r.T[0]/5) {
			b.Fatal("Tv should start cold")
		}
		if math.Abs(r.T[last]-r.Tv[last]) > 0.25*r.T[last] {
			b.Fatal("T and Tv failed to merge")
		}
		if r.XN2[last] >= r.XN2[0] {
			b.Fatal("N2 should dissociate")
		}
		if r.XE[last] <= 0 {
			b.Fatal("ionization missing")
		}
	}
	b.ReportMetric(tFrozen, "T-frozen-K")
	b.ReportMetric(tEq, "T-equilibrium-K")
}

// BenchmarkFig8NoneqSpectra: computed vs measured spectral comparison.
func BenchmarkFig8NoneqSpectra(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := Fig8NoneqSpectra()
		if err != nil {
			b.Fatal(err)
		}
		// Band-by-band agreement: integrated computed vs measured intensity
		// within the perturbation envelope (the Fig. 8 "good comparison").
		ic, im := 0.0, 0.0
		for j := 1; j < len(r.LambdaNm); j++ {
			dl := r.LambdaNm[j] - r.LambdaNm[j-1]
			ic += 0.5 * (r.Computed[j] + r.Computed[j-1]) * dl
			im += 0.5 * (r.Measured[j] + r.Measured[j-1]) * dl
		}
		if ic <= 0 || im <= 0 {
			b.Fatal("empty spectra")
		}
		ratio = ic / im
		if ratio < 0.6 || ratio > 1.7 {
			b.Fatalf("computed/measured integral ratio %g outside band", ratio)
		}
	}
	b.ReportMetric(ratio, "computed/measured")
}

// BenchmarkFig9HemisphereNS: N2 mole-fraction contours, Mach 20, 20 km.
func BenchmarkFig9HemisphereNS(b *testing.B) {
	var minX float64
	for i := 0; i < b.N; i++ {
		r, err := Fig9HemisphereNS(1)
		if err != nil {
			b.Fatal(err)
		}
		minX = r.MinXN2
		// Fig. 9 contour range: levels 0.50-0.79; the shock layer must
		// dissociate into that band and the 0.75 contour must exist.
		if _, ok := r.ContourX[0.75]; !ok {
			b.Fatal("0.75 contour missing on the stagnation line")
		}
		if minX > 0.76 || minX < 0.2 {
			b.Fatalf("min x(N2) = %g outside the Fig. 9 band", minX)
		}
		if r.QStag <= 0 || r.Standoff <= 0 {
			b.Fatal("missing NS outputs")
		}
	}
	b.ReportMetric(minX, "min-xN2")
}

// --- Ablation benches (one design choice each; helpers in ablation_test.go) ---

// BenchmarkAblationEquilibriumTableVsExact: table lookup vs exact Gibbs
// solve in the (rho,e) -> (p,T,a) hot path.
func BenchmarkAblationEquilibriumTableVsExact(b *testing.B) {
	exact := newEquilibriumForBench()
	tab, err := newTableForBench(exact)
	if err != nil {
		b.Fatal(err)
	}
	rho, e := 0.01, 8e6
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := exact.PrimState(rho, e); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := tab.PrimState(rho, e); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOneVsTwoTemperature: relaxation-zone length with and
// without the two-temperature model (TaGeom vs T-only dissociation rates).
func BenchmarkAblationOneVsTwoTemperature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oneT, twoT, err := relaxationLengthComparison()
		if err != nil {
			b.Fatal(err)
		}
		// The two-temperature model delays dissociation (sqrt(T*Tv) is
		// initially far below T), lengthening the relaxation zone.
		if twoT <= oneT {
			b.Fatalf("two-temperature zone (%g m) should exceed one-T (%g m)", twoT, oneT)
		}
		b.ReportMetric(twoT/oneT, "2T/1T-length")
	}
}

// BenchmarkAblationCatalyticWallSweep: heating vs recombination coefficient.
func BenchmarkAblationCatalyticWallSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		qs, err := catalyticSweep([]float64{0, 0.005, 0.05, 1})
		if err != nil {
			b.Fatal(err)
		}
		for j := 1; j < len(qs); j++ {
			if qs[j] < qs[j-1] {
				b.Fatalf("heating must rise with catalycity: %v", qs)
			}
		}
		b.ReportMetric(qs[0]/qs[len(qs)-1], "noncat/fullycat")
	}
}

// BenchmarkAblationMUSCLShockCrispness: first-order vs MUSCL shock width.
func BenchmarkAblationMUSCLShockCrispness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w1, w2, err := shockWidthComparison()
		if err != nil {
			b.Fatal(err)
		}
		if w2 > w1*1.05 {
			b.Fatalf("MUSCL shock width %g should not exceed first-order %g", w2, w1)
		}
		b.ReportMetric(w2/w1, "muscl/firstorder-width")
	}
}

// BenchmarkAblationThinVsTangentSlab: optically thin limit vs full
// tangent-slab transport for the Titan shock layer.
func BenchmarkAblationThinVsTangentSlab(b *testing.B) {
	for i := 0; i < b.N; i++ {
		thin, slab, err := radiationLimitComparison()
		if err != nil {
			b.Fatal(err)
		}
		if slab > thin*1.01 {
			b.Fatalf("transport (%g) cannot exceed the thin limit (%g)", slab, thin)
		}
		b.ReportMetric(slab/thin, "slab/thin")
	}
}

// --- Session API benches ---

// BenchmarkColdSolve: a repeated NS stagnation solve through a fresh
// session every iteration — the legacy one-shot cost, paying the model
// stack and EOS-table build each time.
func BenchmarkColdSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := NewSession().Solve(context.Background(), smallNSProblem())
		if err != nil {
			b.Fatal(err)
		}
		if env.QConvStag <= 0 {
			b.Fatal("no NS wall heating")
		}
	}
}

// BenchmarkSessionReuse: the same NS stagnation solve through one reused
// session — the cached-stack path; the EOS table builds exactly once.
func BenchmarkSessionReuse(b *testing.B) {
	s := NewSession()
	// Warm the caches so the loop measures steady-state reuse.
	if _, err := s.Solve(context.Background(), smallNSProblem()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := s.Solve(context.Background(), smallNSProblem())
		if err != nil {
			b.Fatal(err)
		}
		if env.QConvStag <= 0 {
			b.Fatal("no NS wall heating")
		}
	}
	if builds := s.stack.TableBuilds(); builds != 1 {
		b.Fatalf("EOS table built %d times across the bench, want 1", builds)
	}
}

// BenchmarkEngineeringTier: one Shuttle-point solve of each engineering
// tier (VSL with radiation, E+BL, PNS) through one warmed session, so the
// model stack is built once and each iteration times the solve alone, and
// the 5 mm shock-tube relaxation TestEngineeringTierGolden pins. The
// hierarchy pays only while these stay far cheaper than an NS solve.
func BenchmarkEngineeringTier(b *testing.B) {
	s := NewSession()
	for _, tier := range []struct {
		name  string
		class SolverClass
	}{{"vsl", VSL}, {"ebl", EBL}, {"pns", PNS}} {
		p := shuttleTierProblem(tier.class)
		if _, err := s.Solve(context.Background(), p); err != nil {
			b.Fatalf("%s: %v", tier.name, err)
		}
		b.Run(tier.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env, err := s.Solve(context.Background(), p)
				if err != nil {
					b.Fatal(err)
				}
				if env.QConvStag <= 0 {
					b.Fatal("no stagnation heating")
				}
			}
		})
	}
	b.Run("shocktube", func(b *testing.B) {
		prob := shockTube5mm(b)
		for i := 0; i < b.N; i++ {
			prof, err := shocktube.Solve(prob)
			if err != nil {
				b.Fatal(err)
			}
			if prof.Tv[len(prof.Tv)-1] <= prof.Tv[0] {
				b.Fatal("no vibrational relaxation")
			}
		}
	})
}
