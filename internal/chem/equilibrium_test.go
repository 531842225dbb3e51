package chem

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"cataero/internal/thermo"
)

func airSetup() (*thermo.Mixture, *EquilibriumSolver, []float64) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	eq := NewEquilibriumSolver(m)
	y0 := thermo.AirFreestreamMassFractions(m.Species)
	return m, eq, y0
}

func TestEquilibriumColdAirUnchanged(t *testing.T) {
	m, eq, y0 := airSetup()
	y, err := eq.CompositionRhoT(1.2, 300, y0)
	if err != nil {
		t.Fatal(err)
	}
	x := m.MoleFractions(y)
	if math.Abs(x[thermo.AirN2]-0.788) > 0.01 {
		t.Errorf("x(N2)=%g want ~0.79", x[thermo.AirN2])
	}
	if math.Abs(x[thermo.AirO2]-0.21) > 0.01 {
		t.Errorf("x(O2)=%g want ~0.21", x[thermo.AirO2])
	}
	for i, v := range x {
		if i != thermo.AirN2 && i != thermo.AirO2 && v > 1e-8 {
			t.Errorf("species %s unexpectedly present: x=%g", m.Species[i].Name, v)
		}
	}
}

func TestEquilibriumO2DissociationAt4000K(t *testing.T) {
	m, eq, y0 := airSetup()
	// 1 atm, 4000 K: O2 mostly dissociated, N2 essentially intact.
	y, _, err := eq.CompositionPT(thermo.AtmPa, 4000, y0)
	if err != nil {
		t.Fatal(err)
	}
	x := m.MoleFractions(y)
	if x[thermo.AirO2] > 0.05 {
		t.Errorf("x(O2)=%g should be small at 4000K/1atm", x[thermo.AirO2])
	}
	if x[thermo.AirO] < 0.15 {
		t.Errorf("x(O)=%g should be large at 4000K", x[thermo.AirO])
	}
	if x[thermo.AirN2] < 0.65 {
		t.Errorf("x(N2)=%g should remain large at 4000K", x[thermo.AirN2])
	}
	// NO peaks in this regime at the percent level.
	if x[thermo.AirNO] < 1e-3 || x[thermo.AirNO] > 0.1 {
		t.Errorf("x(NO)=%g outside percent-level band", x[thermo.AirNO])
	}
}

func TestEquilibriumN2DissociationAt8000K(t *testing.T) {
	m, eq, y0 := airSetup()
	y, _, err := eq.CompositionPT(thermo.AtmPa, 8000, y0)
	if err != nil {
		t.Fatal(err)
	}
	x := m.MoleFractions(y)
	if x[thermo.AirN2] > 0.35 {
		t.Errorf("x(N2)=%g should be heavily dissociated at 8000K", x[thermo.AirN2])
	}
	if x[thermo.AirN] < 0.4 {
		t.Errorf("x(N)=%g should dominate at 8000K", x[thermo.AirN])
	}
	// Trace ionization begins.
	if x[thermo.AirE] < 1e-6 || x[thermo.AirE] > 0.05 {
		t.Errorf("x(e-)=%g outside trace band at 8000K", x[thermo.AirE])
	}
}

func TestEquilibriumIonizationAt15000K(t *testing.T) {
	m, eq, y0 := airSetup()
	y, _, err := eq.CompositionPT(thermo.AtmPa, 15000, y0)
	if err != nil {
		t.Fatal(err)
	}
	x := m.MoleFractions(y)
	if x[thermo.AirE] < 0.02 {
		t.Errorf("x(e-)=%g should be substantial at 15000K", x[thermo.AirE])
	}
	// Molecules essentially gone.
	if x[thermo.AirN2]+x[thermo.AirO2] > 0.02 {
		t.Errorf("molecules remain at 15000K: N2=%g O2=%g", x[thermo.AirN2], x[thermo.AirO2])
	}
}

func TestEquilibriumChargeNeutrality(t *testing.T) {
	m, eq, y0 := airSetup()
	y, _, err := eq.CompositionPT(thermo.AtmPa, 12000, y0)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumberDensities(1, y) // per unit mass; proportional is enough
	net, tot := 0.0, 0.0
	for i, sp := range m.Species {
		net += float64(sp.Charge) * n[i]
		tot += math.Abs(float64(sp.Charge)) * n[i]
	}
	if tot == 0 {
		t.Fatal("no ions at 12000K?")
	}
	if math.Abs(net)/tot > 1e-8 {
		t.Errorf("charge imbalance %g", net/tot)
	}
}

// Property: element mass is conserved by the equilibrium solve for random
// (rho, T) states.
func TestEquilibriumElementConservation(t *testing.T) {
	m, eq, y0 := airSetup()
	elemMass := func(y []float64) (mN, mO float64) {
		for s, sp := range m.Species {
			nMolPerKg := y[s] / sp.W
			mN += float64(sp.Elems["N"]) * nMolPerKg * 14.0067e-3
			mO += float64(sp.Elems["O"]) * nMolPerKg * 15.9994e-3
		}
		return
	}
	mN0, mO0 := elemMass(y0)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rho := math.Exp(r.Float64()*10 - 7) // 1e-3 .. 20 kg/m^3
		T := 300 + r.Float64()*14700
		y, err := eq.CompositionRhoT(rho, T, y0)
		if err != nil {
			return false
		}
		mN, mO := elemMass(y)
		return math.Abs(mN-mN0) < 1e-6*mN0 && math.Abs(mO-mO0) < 1e-6*mO0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Error(err)
	}
}

// Property: mass fractions are nonnegative and sum to one.
func TestEquilibriumMassFractionSanity(t *testing.T) {
	_, eq, y0 := airSetup()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rho := math.Exp(r.Float64()*8 - 6)
		T := 250 + r.Float64()*19750
		y, err := eq.CompositionRhoT(rho, T, y0)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range y {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}

func TestCompositionPTMatchesPressure(t *testing.T) {
	m, eq, y0 := airSetup()
	for _, T := range []float64{500, 3000, 7000, 12000} {
		p := 5000.0
		y, rho, err := eq.CompositionPT(p, T, y0)
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		if got := m.Pressure(rho, T, y); math.Abs(got-p) > 1e-6*p {
			t.Errorf("T=%g: pressure %g want %g", T, got, p)
		}
	}
}

func TestDensityLoweringShiftsDissociation(t *testing.T) {
	// Le Chatelier: at fixed T, lower pressure favors dissociation.
	m, eq, y0 := airSetup()
	yLow, _, err := eq.CompositionPT(100, 5000, y0)
	if err != nil {
		t.Fatal(err)
	}
	yHigh, _, err := eq.CompositionPT(1e6, 5000, y0)
	if err != nil {
		t.Fatal(err)
	}
	xLow := m.MoleFractions(yLow)
	xHigh := m.MoleFractions(yHigh)
	if xLow[thermo.AirN2] >= xHigh[thermo.AirN2] {
		t.Errorf("N2 should dissociate more at low p: low=%g high=%g",
			xLow[thermo.AirN2], xHigh[thermo.AirN2])
	}
}

func TestTemperaturePHRoundTrip(t *testing.T) {
	_, eq, y0 := airSetup()
	p := 2e4
	for _, T := range []float64{2000, 6000, 11000} {
		h, err := eq.EnthalpyPT(p, T, y0)
		if err != nil {
			t.Fatal(err)
		}
		Tgot, _, _, err := eq.TemperaturePH(p, h, y0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(Tgot-T) > 0.01*T {
			t.Errorf("PH inversion: got %g want %g", Tgot, T)
		}
	}
}

func TestTemperatureRhoERoundTrip(t *testing.T) {
	m, eq, y0 := airSetup()
	rho := 0.01
	for _, T := range []float64{1000, 5000, 9000} {
		y, err := eq.CompositionRhoT(rho, T, y0)
		if err != nil {
			t.Fatal(err)
		}
		e := m.EInternal(T, y)
		Tgot, ygot, err := eq.TemperatureRhoE(rho, e, y0, 0.8*T)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(Tgot-T) > 0.01*T {
			t.Errorf("RhoE inversion: got %g want %g", Tgot, T)
		}
		if math.Abs(ygot[thermo.AirN2]-y[thermo.AirN2]) > 1e-3 {
			t.Errorf("composition mismatch after inversion")
		}
	}
}

func TestEquilibriumPureN2(t *testing.T) {
	// Pure nitrogen: the O-bearing species must stay exactly zero.
	m, eq, _ := airSetup()
	y0 := make([]float64, m.Len())
	y0[thermo.AirN2] = 1
	y, err := eq.CompositionRhoT(0.1, 7000, y0)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range m.Species {
		if sp.Elems["O"] > 0 && y[i] != 0 {
			t.Errorf("O-bearing species %s present in pure N2: %g", sp.Name, y[i])
		}
	}
	if y[thermo.AirN] < 1e-4 {
		t.Errorf("N2 should partially dissociate at 7000K: y(N)=%g", y[thermo.AirN])
	}
}

func TestEquilibriumTitanComposition(t *testing.T) {
	m := thermo.NewMixture(thermo.TitanSpecies())
	eq := NewEquilibriumSolver(m)
	y0 := thermo.TitanFreestreamMassFractions(m.Species)
	// Cold Titan atmosphere: N2 + CH4 only.
	y, err := eq.CompositionRhoT(1e-3, 200, y0)
	if err != nil {
		t.Fatal(err)
	}
	x := m.MoleFractions(y)
	if x[thermo.TiN2] < 0.9 || x[thermo.TiCH4] < 0.01 {
		t.Errorf("cold Titan composition wrong: N2=%g CH4=%g", x[thermo.TiN2], x[thermo.TiCH4])
	}
	// Shock-layer temperature: CH4 destroyed, H2/H/C2H2/HCN/CN formed.
	y, _, err = eq.CompositionPT(1e4, 6000, y0)
	if err != nil {
		t.Fatal(err)
	}
	x = m.MoleFractions(y)
	if x[thermo.TiCH4] > 1e-4 {
		t.Errorf("CH4 should be destroyed at 6000K: %g", x[thermo.TiCH4])
	}
	if x[thermo.TiH] < 0.01 {
		t.Errorf("atomic H should be abundant at 6000K: %g", x[thermo.TiH])
	}
	// CN is the radiating species for Titan entries; must be present.
	if x[thermo.TiCN] < 1e-6 {
		t.Errorf("CN missing at 6000K: %g", x[thermo.TiCN])
	}
}

func TestEquilibriumErrors(t *testing.T) {
	_, eq, y0 := airSetup()
	if _, err := eq.CompositionRhoT(-1, 300, y0); err == nil {
		t.Error("negative density should error")
	}
	if _, err := eq.CompositionRhoT(1, 0, y0); err == nil {
		t.Error("zero temperature should error")
	}
	if _, _, err := eq.CompositionPT(0, 300, y0); err == nil {
		t.Error("zero pressure should error")
	}
	zero := make([]float64, len(y0))
	if _, err := eq.CompositionRhoT(1, 300, zero); err == nil {
		t.Error("empty composition should error")
	}
}

func TestWarmStartConsistency(t *testing.T) {
	// Sweeping T up then down must give identical results (warm start must
	// not bias the converged answer).
	m, eq, y0 := airSetup()
	up := map[float64][]float64{}
	for _, T := range []float64{2000, 6000, 10000, 14000} {
		y, err := eq.CompositionRhoT(0.02, T, y0)
		if err != nil {
			t.Fatal(err)
		}
		up[T] = y
	}
	for _, T := range []float64{14000, 10000, 6000, 2000} {
		y, err := eq.CompositionRhoT(0.02, T, y0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Abs(y[i]-up[T][i]) > 1e-8 {
				t.Errorf("T=%g species %s: hysteresis %g vs %g", T, m.Species[i].Name, y[i], up[T][i])
			}
		}
	}
}

// TestCompositionLnqCacheKeyed: a solver's works keep ln q between calls,
// keyed on T and the active species set. On one solver at one T, pure-N2
// calls (oxygen inactive, so no oxygen species' ln q is evaluated) alternate
// with air calls; each must equal the same call on a fresh solver, bit for
// bit. Each call's species set differs from its predecessor's, so the shared
// warm start never carries over and cannot hide a stale ln q.
func TestCompositionLnqCacheKeyed(t *testing.T) {
	m, eq, air := airSetup()
	n2 := make([]float64, m.Len())
	n2[thermo.AirN2] = 1
	const p, T, rho = 1e4, 7000.0, 0.01
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for i := 0; i < 8; i++ {
		y0, name := n2, "N2"
		if i%2 == 1 {
			y0, name = air, "air"
		}
		if i/2%2 == 0 {
			y, r, err := eq.CompositionPT(p, T, y0)
			want, wantR, errF := NewEquilibriumSolver(m).CompositionPT(p, T, y0)
			if err != nil || errF != nil {
				t.Fatalf("call %d (%s): %v / fresh %v", i, name, err, errF)
			}
			if !same(y, want) || math.Float64bits(r) != math.Float64bits(wantR) {
				t.Errorf("call %d: CompositionPT(%s) = %v, rho %.17g; fresh solver %v, rho %.17g", i, name, y, r, want, wantR)
			}
			continue
		}
		y, err := eq.CompositionRhoT(rho, T, y0)
		want, errF := NewEquilibriumSolver(m).CompositionRhoT(rho, T, y0)
		if err != nil || errF != nil {
			t.Fatalf("call %d (%s): %v / fresh %v", i, name, err, errF)
		}
		if !same(y, want) {
			t.Errorf("call %d: CompositionRhoT(%s) = %v; fresh solver %v", i, name, y, want)
		}
	}
}

// TestCompositionPTConcurrent: one solver serves eight goroutines at once,
// each solving its own (p, T) repeatedly (CI runs it under -race). Every
// result must match the same solve made alone to 1e-9: the shared warm start
// moves the last bits, and nothing else is shared between calls.
func TestCompositionPTConcurrent(t *testing.T) {
	m, eq, y0 := airSetup()
	type point struct{ p, T float64 }
	var pts []point
	for i := 0; i < 8; i++ {
		pts = append(pts, point{p: 100 * math.Pow(10, float64(i%4)), T: 2500 + 1700*float64(i)})
	}
	type result struct {
		y   []float64
		rho float64
	}
	alone := make([]result, len(pts))
	for i, pt := range pts {
		y, rho, err := NewEquilibriumSolver(m).CompositionPT(pt.p, pt.T, y0)
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = result{y, rho}
	}
	errs := make(chan error, len(pts))
	var wg sync.WaitGroup
	for i, pt := range pts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				y, rho, err := eq.CompositionPT(pt.p, pt.T, y0)
				if err != nil {
					errs <- err
					return
				}
				if d := math.Abs(rho/alone[i].rho - 1); d > 1e-9 {
					errs <- fmt.Errorf("p=%g T=%g: rho off by %.3g relative", pt.p, pt.T, d)
					return
				}
				for s := range y {
					if d := math.Abs(y[s] - alone[i].y[s]); d > 1e-9 {
						errs <- fmt.Errorf("p=%g T=%g: y[%s] off by %.3g", pt.p, pt.T, m.Species[s].Name, d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
