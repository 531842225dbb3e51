package chem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cataero/internal/numerics"
	"cataero/internal/thermo"
)

func mechSetup(t *testing.T) (*thermo.Mixture, *Mechanism, []float64) {
	t.Helper()
	m := thermo.NewMixture(thermo.AirSpecies11())
	mech, err := AirMechanism(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, mech, thermo.AirFreestreamMassFractions(m.Species)
}

func TestMechanismBalanced(t *testing.T) {
	// NewMechanism validates element/charge balance; construction succeeding
	// is the assertion. Also check a deliberately broken reaction fails.
	m, _, _ := mechSetup(t)
	bad := &Reaction{
		Name: "N2=N", // unbalanced
		LHS:  []Stoich{{thermo.AirN2, 1}},
		RHS:  []Stoich{{thermo.AirN, 1}},
		A:    1,
	}
	if _, err := NewMechanism(m, []*Reaction{bad}); err == nil {
		t.Error("unbalanced reaction accepted")
	}
	badQ := &Reaction{
		Name: "N=N+", // charge unbalanced
		LHS:  []Stoich{{thermo.AirN, 1}},
		RHS:  []Stoich{{thermo.AirNp, 1}},
		A:    1,
	}
	if _, err := NewMechanism(m, []*Reaction{badQ}); err == nil {
		t.Error("charge-unbalanced reaction accepted")
	}
}

// Property: chemical source terms conserve mass exactly:
// sum_s wdot_s W_s = 0 for any state.
func TestProductionConservesMass(t *testing.T) {
	m, mech, _ := mechSetup(t)
	wdot := make([]float64, m.Len())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		y := make([]float64, m.Len())
		for i := range y {
			y[i] = r.Float64()
		}
		thermo.Normalize(y)
		rho := math.Exp(r.Float64()*6 - 5)
		T := 1000 + r.Float64()*19000
		Tv := 1000 + r.Float64()*19000
		mech.Production(rho, T, Tv, y, wdot)
		sum, scale := 0.0, 0.0
		for s, sp := range m.Species {
			sum += wdot[s] * sp.W
			scale += math.Abs(wdot[s]) * sp.W
		}
		if scale == 0 {
			return true
		}
		return math.Abs(sum)/scale < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Error(err)
	}
}

// Property: source terms conserve charge: sum_s wdot_s * charge_s = 0.
func TestProductionConservesCharge(t *testing.T) {
	m, mech, _ := mechSetup(t)
	wdot := make([]float64, m.Len())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		y := make([]float64, m.Len())
		for i := range y {
			y[i] = r.Float64()
		}
		thermo.Normalize(y)
		mech.Production(0.01, 9000, 8000, y, wdot)
		sum, scale := 0.0, 0.0
		for s, sp := range m.Species {
			sum += wdot[s] * float64(sp.Charge)
			scale += math.Abs(wdot[s] * float64(sp.Charge))
		}
		if scale == 0 {
			return true
		}
		return math.Abs(sum)/scale < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}

func TestEquilibriumIsKineticFixedPoint(t *testing.T) {
	// The central consistency property of the chem package: at the Gibbs
	// equilibrium composition, every reaction's net rate vanishes (relative
	// to its gross forward rate), because kb = kf/Kc uses the same
	// partition functions as the Gibbs solver.
	m, mech, y0 := mechSetup(t)
	eq := NewEquilibriumSolver(m)
	for _, T := range []float64{4000, 8000, 12000} {
		rho := 0.01
		y, err := eq.CompositionRhoT(rho, T, y0)
		if err != nil {
			t.Fatal(err)
		}
		c := make([]float64, m.Len())
		for s, sp := range m.Species {
			if y[s] > 0 {
				c[s] = rho * y[s] / sp.W
			}
		}
		// Compare the net production of each species with the gross rates.
		for _, r := range mech.Reactions {
			kf := r.Kf(T)
			fwd := kf
			for _, st := range r.LHS {
				fwd *= math.Pow(c[st.Sp], st.Nu)
			}
			kb := kf / math.Exp(mech.LnKc(r, T))
			bwd := kb
			for _, st := range r.RHS {
				bwd *= math.Pow(c[st.Sp], st.Nu)
			}
			gross := math.Max(fwd, bwd)
			if gross < 1e-30 {
				continue
			}
			if math.Abs(fwd-bwd)/gross > 1e-4 {
				t.Errorf("T=%g reaction %s not balanced at equilibrium: fwd=%g bwd=%g",
					T, r.Name, fwd, bwd)
			}
		}
	}
}

func TestKineticRelaxationReachesEquilibrium(t *testing.T) {
	// Integrate dY/dt = S(Y) at fixed rho, T from frozen air and verify the
	// stiff integrator lands on the Gibbs composition.
	m, mech, y0 := mechSetup(t)
	eq := NewEquilibriumSolver(m)
	rho, T := 0.02, 6000.0
	yEq, err := eq.CompositionRhoT(rho, T, y0)
	if err != nil {
		t.Fatal(err)
	}
	y := append([]float64(nil), y0...)
	stepper := numerics.NewStiffStepper(m.Len(), func(y, dydt []float64) {
		yc := make([]float64, len(y))
		copy(yc, y)
		for i := range yc {
			if yc[i] < 0 {
				yc[i] = 0
			}
		}
		mech.MassProduction(rho, T, T, yc, dydt)
	})
	if err := stepper.Integrate(y, 0.05, 1e-5); err != nil {
		t.Fatal(err)
	}
	for i, sp := range m.Species {
		if yEq[i] > 1e-4 {
			if rel := math.Abs(y[i]-yEq[i]) / yEq[i]; rel > 0.05 {
				t.Errorf("species %s: kinetic %g vs Gibbs %g (rel %g)", sp.Name, y[i], yEq[i], rel)
			}
		}
	}
}

func TestDissociationRateIncreasesWithT(t *testing.T) {
	_, mech, _ := mechSetup(t)
	r := mech.Reactions[0] // N2+M
	if r.Kf(4000) >= r.Kf(8000) {
		t.Error("N2 dissociation rate should grow with T")
	}
	if r.Kf(0) != 0 {
		t.Error("rate at T=0 should be 0")
	}
}

func TestControllingTemperature(t *testing.T) {
	_, mech, _ := mechSetup(t)
	var diss, ei *Reaction
	for _, r := range mech.Reactions {
		if r.TMode == TaGeom && diss == nil {
			diss = r
		}
		if r.TMode == TElectron && ei == nil {
			ei = r
		}
	}
	if diss == nil || ei == nil {
		t.Fatal("mechanism missing TaGeom or TElectron reactions")
	}
	if got := diss.ControllingT(10000, 2500); math.Abs(got-5000) > 1e-9 {
		t.Errorf("Ta=%g want 5000", got)
	}
	if got := ei.ControllingT(10000, 2500); got != 2500 {
		t.Errorf("Te=%g want 2500", got)
	}
	// Tv=0 falls back to T.
	if got := diss.ControllingT(10000, 0); got != 10000 {
		t.Errorf("Ta fallback=%g want 10000", got)
	}
}

func TestVibSourceSignAndEquilibrium(t *testing.T) {
	m, mech, y0 := mechSetup(t)
	rho, p := 0.01, 5000.0
	// Tv < T: vibrational pool must be heated (Q > 0).
	Q := mech.VibSource(rho, p, 10000, 2000, y0, nil)
	if Q <= 0 {
		t.Errorf("Q=%g should be positive when Tv<T", Q)
	}
	// Tv > T: pool cools.
	if Q := mech.VibSource(rho, p, 2000, 10000, y0, nil); Q >= 0 {
		t.Errorf("Q=%g should be negative when Tv>T", Q)
	}
	// Tv == T: Landau-Teller term vanishes.
	if Q := mech.VibSource(rho, p, 5000, 5000, y0, nil); math.Abs(Q) > 1e-6 {
		t.Errorf("Q=%g should vanish at Tv=T", Q)
	}
	_ = m
}

func TestVibSourceChemistryCoupling(t *testing.T) {
	// Dissociation (negative wdot for N2) removes vibrational energy.
	m, mech, _ := mechSetup(t)
	y := make([]float64, m.Len())
	y[thermo.AirN2] = 1
	wdot := make([]float64, m.Len())
	wdot[thermo.AirN2] = -1 // mol/m^3/s disappearing
	wdot[thermo.AirN] = 2
	T := 8000.0
	Qchem := mech.VibSource(0.01, 1000, T, T, y, wdot) // Tv=T kills LT term
	if Qchem >= 0 {
		t.Errorf("dissociation should drain the vibrational pool, Q=%g", Qchem)
	}
}

// productionRef is Production as it stood before it shared ln q - ln NA
// across reactions: every reaction asks LnKc, which evaluates each
// participant's partition function afresh.
func productionRef(mech *Mechanism, rho, T, Tv float64, y, wdot []float64) {
	nsp := mech.Mix.Len()
	c := make([]float64, nsp)
	for s, sp := range mech.Mix.Species {
		if y[s] > 0 {
			c[s] = rho * y[s] / sp.W
		}
	}
	for s := range wdot {
		wdot[s] = 0
	}
	for _, r := range mech.Reactions {
		Tc := r.ControllingT(T, Tv)
		kf := r.Kf(Tc)
		if kf == 0 {
			continue
		}
		lnKc := mech.LnKc(r, T)
		kb := kf * math.Exp(-numerics.Clamp(lnKc, -250, 600))
		fwd := kf
		for _, st := range r.LHS {
			fwd *= powNu(c[st.Sp], st.Nu)
		}
		bwd := kb
		for _, st := range r.RHS {
			bwd *= powNu(c[st.Sp], st.Nu)
		}
		rate := fwd - bwd
		if r.ThirdBody {
			tb := 0.0
			for s := 0; s < nsp; s++ {
				tb += r.Eff[s] * c[s]
			}
			rate *= tb
		}
		if rate == 0 || math.IsNaN(rate) {
			continue
		}
		for _, st := range r.LHS {
			wdot[st.Sp] -= st.Nu * rate
		}
		for _, st := range r.RHS {
			wdot[st.Sp] += st.Nu * rate
		}
	}
}

// vibSourceRef is VibSource as it stood before its production-energy loop
// reused the relaxation loop's pool energies.
func vibSourceRef(mech *Mechanism, rho, p, T, Tv float64, y, wdot []float64) float64 {
	m := mech.Mix
	x := m.MoleFractions(y)
	nTot := p / (thermo.KB * T)
	Q := 0.0
	for s, sp := range m.Species {
		if y[s] <= 0 {
			continue
		}
		var poolT, poolTv, tau float64
		switch {
		case sp.Name == "e-":
			poolT = 1.5 * sp.R() * T
			poolTv = 1.5 * sp.R() * Tv
			tau = thermo.ParkCollisionTau(sp, T, nTot)
		case sp.IsMolecule():
			poolT = sp.EVib(T) + sp.EElec(T)
			poolTv = sp.EVib(Tv) + sp.EElec(Tv)
			tau = thermo.RelaxationTime(m, s, T, p, x)
		default:
			poolT = sp.EElec(T)
			poolTv = sp.EElec(Tv)
			if poolT == 0 && poolTv == 0 {
				continue
			}
			tau = thermo.ParkCollisionTau(sp, T, nTot)
		}
		if !math.IsInf(tau, 1) && tau > 0 {
			Q += rho * y[s] * (poolT - poolTv) / tau
		}
	}
	if wdot != nil {
		for s, sp := range m.Species {
			if wdot[s] == 0 {
				continue
			}
			ev := sp.EVib(Tv) + sp.EElec(Tv)
			if sp.Name == "e-" {
				ev = 1.5 * sp.R() * Tv
			}
			Q += wdot[s] * sp.W * ev
		}
	}
	return Q
}

// airCompositions returns air-11 mass fractions that exercise every branch
// of the source terms: frozen freestream air, dissociated neutral air (no
// ions, so their production has no pool energy to reuse), and ionized air.
func airCompositions(m *thermo.Mixture) map[string][]float64 {
	frozen := thermo.AirFreestreamMassFractions(m.Species)
	diss := make([]float64, m.Len())
	diss[thermo.AirN2], diss[thermo.AirO2], diss[thermo.AirNO] = 0.5, 0.05, 0.05
	diss[thermo.AirN], diss[thermo.AirO] = 0.2, 0.2
	ion := make([]float64, m.Len())
	for s := range ion {
		ion[s] = 0.02
	}
	ion[thermo.AirN], ion[thermo.AirO] = 0.5, 0.2
	thermo.Normalize(ion)
	return map[string][]float64{"frozen": frozen, "dissociated": diss, "ionized": ion}
}

// TestProductionMatchesLnKc pins Production and VibSource bit for bit to
// their per-reaction, per-loop reference forms over air-11 at T and Tv from
// 300 to 60000 K, on frozen, dissociated and ionized compositions.
func TestProductionMatchesLnKc(t *testing.T) {
	m, mech, _ := mechSetup(t)
	temps := []float64{300, 2000, 9000, 30000, 60000}
	got, want := make([]float64, m.Len()), make([]float64, m.Len())
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, y := range airCompositions(m) {
		for _, T := range temps {
			for _, Tv := range temps {
				rho := 0.01
				p := m.Pressure(rho, T, y)
				mech.Production(rho, T, Tv, y, got)
				productionRef(mech, rho, T, Tv, y, want)
				for s := range got {
					if !same(got[s], want[s]) {
						t.Errorf("%s T=%g Tv=%g: wdot[%s] = %.17g, want %.17g",
							name, T, Tv, m.Species[s].Name, got[s], want[s])
					}
				}
				for _, wdot := range [][]float64{nil, want} {
					q, qRef := mech.VibSource(rho, p, T, Tv, y, wdot), vibSourceRef(mech, rho, p, T, Tv, y, wdot)
					if !same(q, qRef) {
						t.Errorf("%s T=%g Tv=%g (wdot %v): Q = %.17g, want %.17g",
							name, T, Tv, wdot != nil, q, qRef)
					}
				}
			}
		}
	}
}
