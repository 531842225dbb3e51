package thermo

import (
	"math"
	"testing"
)

func TestMillikanWhiteN2SelfCollision(t *testing.T) {
	sp := air()
	n2 := sp[AirN2]
	// Classic check: p*tau for N2-N2 at 2000 K should be O(1e-5..1e-4) atm s
	// (Millikan & White 1963 figure range).
	tau := MillikanWhiteTau(n2, n2, 2000, AtmPa)
	if tau < 1e-7 || tau > 1e-3 {
		t.Errorf("tau(N2-N2,2000K,1atm)=%g s outside plausible band", tau)
	}
	// Relaxation gets faster with temperature.
	if MillikanWhiteTau(n2, n2, 4000, AtmPa) >= tau {
		t.Error("tau should decrease with T")
	}
	// And inversely proportional to pressure.
	r := MillikanWhiteTau(n2, n2, 2000, AtmPa) / MillikanWhiteTau(n2, n2, 2000, 2*AtmPa)
	if math.Abs(r-2) > 1e-9 {
		t.Errorf("pressure scaling ratio %g want 2", r)
	}
}

func TestMillikanWhiteAtomHasNoTau(t *testing.T) {
	sp := air()
	if !math.IsInf(MillikanWhiteTau(sp[AirN], sp[AirN2], 2000, AtmPa), 1) {
		t.Error("atoms have no vibrational relaxation time")
	}
}

func TestParkCorrectionDominatesAtHighT(t *testing.T) {
	sp := air()
	m := NewMixture(sp)
	y := AirFreestreamMassFractions(sp)
	x := m.MoleFractions(y)
	n2 := sp[AirN2]
	p := 1000.0 // low pressure like a shock tube
	// At very high T Millikan-White alone would collapse to ~0; Park's
	// collision limit keeps tau above the hard floor.
	T := 30000.0
	tau := RelaxationTime(m, AirN2, T, p, x)
	n := p / (KB * T)
	floor := ParkCollisionTau(n2, T, n)
	if tau < floor {
		t.Errorf("tau=%g below Park floor %g", tau, floor)
	}
	if math.IsInf(tau, 1) || tau <= 0 {
		t.Errorf("tau=%g not finite positive", tau)
	}
}

func TestRelaxationTimeMixtureAveraging(t *testing.T) {
	m := NewMixture(air())
	// Pure N2.
	x := make([]float64, m.Len())
	x[AirN2] = 1
	tauPure := RelaxationTime(m, AirN2, 3000, AtmPa, x)
	if tauPure <= 0 || math.IsInf(tauPure, 1) {
		t.Fatalf("tau pure N2 = %g", tauPure)
	}
	// Adding atomic collision partners (more efficient relaxers, smaller
	// reduced mass) should not increase tau by much; typically decreases.
	x[AirN2], x[AirN] = 0.5, 0.5
	tauMix := RelaxationTime(m, AirN2, 3000, AtmPa, x)
	if tauMix > tauPure*1.5 {
		t.Errorf("mixture tau %g way above pure %g", tauMix, tauPure)
	}
}

func TestRelaxationDefensiveCases(t *testing.T) {
	sp := air()
	n2 := sp[AirN2]
	if !math.IsInf(MillikanWhiteTau(n2, n2, 0, AtmPa), 1) {
		t.Error("T=0 should give infinite tau")
	}
	if !math.IsInf(MillikanWhiteTau(n2, n2, 300, 0), 1) {
		t.Error("p=0 should give infinite tau")
	}
	if !math.IsInf(ParkCollisionTau(n2, 0, 1e20), 1) {
		t.Error("Park tau with T=0 should be infinite")
	}
}

// relaxationTimeRef is the scalar form of RelaxationTime: every pair time
// from MillikanWhiteTau, mole-fraction averaged, plus the Park correction.
func relaxationTimeRef(m *Mixture, s *Species, T, p float64, x []float64) float64 {
	num, den := 0.0, 0.0
	for i, r := range m.Species {
		if x[i] <= 0 || r.Name == "e-" {
			continue
		}
		tau := MillikanWhiteTau(s, r, T, p)
		if math.IsInf(tau, 1) {
			continue
		}
		num += x[i]
		den += x[i] / tau
	}
	tauMW := math.Inf(1)
	if den > 0 {
		tauMW = num / den
	}
	return tauMW + ParkCollisionTau(s, T, p/(KB*T))
}

// TestRelaxationTimeMatchesPairwise: the tabulated Millikan-White pair
// constants change the cost of RelaxationTime, not its value. For every
// species of air-11 and Titan (atoms and electrons included), over shock-tube
// and flight pressures, 300-60000 K, and compositions with zero entries, it
// equals the mole-fraction average of MillikanWhiteTau plus
// ParkCollisionTau exactly.
func TestRelaxationTimeMatchesPairwise(t *testing.T) {
	for _, c := range []struct {
		name    string
		species []*Species
		y0      func([]*Species) []float64
	}{
		{"air11", air(), AirFreestreamMassFractions},
		{"titan", TitanSpecies(), TitanFreestreamMassFractions},
	} {
		m := NewMixture(c.species)
		n := m.Len()
		// Freestream, all species equally present, and every other one.
		even := make([]float64, n)
		sparse := make([]float64, n)
		for i := range even {
			even[i] = 1 / float64(n)
			if i%2 == 0 {
				sparse[i] = 2 / float64(n)
			}
		}
		comps := [][]float64{m.MoleFractions(c.y0(m.Species)), even, sparse}
		for ci, x := range comps {
			for _, p := range []float64{13, 1000, AtmPa} {
				for T := 300.0; T <= 60000; T *= 1.3 {
					for s, sp := range m.Species {
						got := RelaxationTime(m, s, T, p, x)
						want := relaxationTimeRef(m, sp, T, p, x)
						if got != want {
							t.Errorf("%s comp %d %s T=%g p=%g: tau %.17g, pairwise %.17g", c.name, ci, sp.Name, T, p, got, want)
						}
					}
				}
			}
		}
	}
}
