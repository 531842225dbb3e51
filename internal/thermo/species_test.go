package thermo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func air() []*Species { return AirSpecies11() }

func TestSpecificGasConstants(t *testing.T) {
	sp := air()
	// N2: R = 8.314/0.0280134 = 296.8 J/(kg K).
	if r := sp[AirN2].R(); math.Abs(r-296.8) > 0.5 {
		t.Errorf("R(N2)=%g want ~296.8", r)
	}
	if r := sp[AirO2].R(); math.Abs(r-259.8) > 0.5 {
		t.Errorf("R(O2)=%g want ~259.8", r)
	}
}

func TestCvLimitsDiatomic(t *testing.T) {
	sp := air()
	n2 := sp[AirN2]
	R := n2.R()
	// Low temperature: vibration frozen, cv = 5/2 R.
	if cv := n2.Cv(300); math.Abs(cv-2.5*R) > 0.02*R {
		t.Errorf("cv(N2,300K)=%g want %g", cv, 2.5*R)
	}
	// High temperature: vibration fully excited, cv -> 7/2 R (before
	// electronic terms add a little more).
	cv := n2.CvTransRot() + n2.CvVib(20000)
	if math.Abs(cv-3.5*R) > 0.05*R {
		t.Errorf("cv_tr+vib(N2,20000K)=%g want %g", cv, 3.5*R)
	}
}

func TestCvAtomMonatomic(t *testing.T) {
	sp := air()
	n := sp[AirN]
	R := n.R()
	if cv := n.CvTransRot(); math.Abs(cv-1.5*R) > 1e-9 {
		t.Errorf("cv_tr(N)=%g want %g", cv, 1.5*R)
	}
	if ev := n.EVib(5000); ev != 0 {
		t.Errorf("atom EVib=%g want 0", ev)
	}
	if er := n.ERot(5000); er != 0 {
		t.Errorf("atom ERot=%g want 0", er)
	}
}

func TestDissociationEnergies(t *testing.T) {
	sp := air()
	// 2*Hf0(N)*W(N) - Hf0(N2)*W(N2) should be ~945 kJ/mol (9.76 eV).
	d := 2*sp[AirN].Hf0*sp[AirN].W - sp[AirN2].Hf0*sp[AirN2].W
	if math.Abs(d-945.4e3) > 5e3 {
		t.Errorf("D(N2)=%g J/mol want ~945.4e3", d)
	}
	d = 2*sp[AirO].Hf0*sp[AirO].W - sp[AirO2].Hf0*sp[AirO2].W
	if math.Abs(d-498.3e3) > 5e3 {
		t.Errorf("D(O2)=%g J/mol want ~498.3e3", d)
	}
}

func TestIonizationEnergies(t *testing.T) {
	sp := air()
	// N -> N+ + e-: 14.53 eV.
	dN := sp[AirNp].Hf0*sp[AirNp].W - sp[AirN].Hf0*sp[AirN].W
	eV := dN / (ECharge * NA)
	if math.Abs(eV-14.55) > 0.15 {
		t.Errorf("IE(N)=%g eV want ~14.5", eV)
	}
	dO := sp[AirOp].Hf0*sp[AirOp].W - sp[AirO].Hf0*sp[AirO].W
	eV = dO / (ECharge * NA)
	if math.Abs(eV-13.65) > 0.15 {
		t.Errorf("IE(O)=%g eV want ~13.6", eV)
	}
}

// Property: h(T) = e(T) + R T and e is strictly increasing in T.
func TestEnthalpyEnergyConsistency(t *testing.T) {
	sp := air()
	f := func(u float64) bool {
		T := math.Mod(math.Abs(u), 29000) + 200
		for _, s := range sp {
			h := s.Enthalpy(T)
			e := s.EInternal(T)
			if math.Abs(h-e-s.R()*T) > 1e-6*math.Abs(h) {
				return false
			}
			if s.EInternal(T+100) <= e {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// Property: numerical derivative of EVib matches CvVib.
func TestCvVibIsDerivative(t *testing.T) {
	sp := air()
	n2 := sp[AirN2]
	for _, T := range []float64{500, 1000, 3000, 8000, 15000} {
		dT := 0.1
		num := (n2.EVib(T+dT) - n2.EVib(T-dT)) / (2 * dT)
		ana := n2.CvVib(T)
		if math.Abs(num-ana) > 1e-3*math.Abs(ana)+1e-6 {
			t.Errorf("T=%g: dEvib/dT=%g CvVib=%g", T, num, ana)
		}
	}
}

func TestCvElecIsDerivative(t *testing.T) {
	sp := air()
	o := sp[AirO]
	for _, T := range []float64{300, 1000, 5000, 15000} {
		dT := 0.1
		num := (o.EElec(T+dT) - o.EElec(T-dT)) / (2 * dT)
		ana := o.CvElec(T)
		if math.Abs(num-ana) > 1e-3*math.Abs(ana)+1e-6 {
			t.Errorf("T=%g: dEelec/dT=%g CvElec=%g", T, num, ana)
		}
	}
}

func TestPartitionFunctionMagnitudes(t *testing.T) {
	sp := air()
	n2 := sp[AirN2]
	// Translational partition function of N2 at 300K ~ 1e32 /m^3 scale.
	q := n2.QTransV(300)
	if q < 1e31 || q > 1e33 {
		t.Errorf("QTransV(N2,300)=%g outside expected magnitude", q)
	}
	// Rotational partition function: T/(sigma*thetaR) = 300/(2*2.88) ~ 52.
	if qr := n2.QRot(300); math.Abs(qr-52.08) > 1 {
		t.Errorf("QRot(N2,300)=%g want ~52", qr)
	}
	// Vibrational partition function ~1 at room temperature.
	if qv := n2.QVib(300); math.Abs(qv-1) > 1e-4 {
		t.Errorf("QVib(N2,300)=%g want ~1", qv)
	}
}

func TestEntropyIncreasesWithT(t *testing.T) {
	sp := air()
	for _, s := range []*Species{sp[AirN2], sp[AirO], sp[AirNO]} {
		prev := s.Entropy(300, AtmPa)
		for _, T := range []float64{600, 1200, 2400, 4800, 9600} {
			cur := s.Entropy(T, AtmPa)
			if cur <= prev {
				t.Errorf("%s: entropy not increasing at T=%g", s.Name, T)
			}
			prev = cur
		}
	}
}

func TestEntropyDecreasesWithP(t *testing.T) {
	sp := air()
	n2 := sp[AirN2]
	if n2.Entropy(1000, 2*AtmPa) >= n2.Entropy(1000, AtmPa) {
		t.Error("entropy should decrease with pressure")
	}
	// ds = -R ln(p2/p1) exactly for ideal gas at fixed T.
	ds := n2.Entropy(1000, AtmPa) - n2.Entropy(1000, 10*AtmPa)
	if math.Abs(ds-n2.R()*math.Log(10)) > 1e-6*ds {
		t.Errorf("pressure entropy increment wrong: %g", ds)
	}
}

func TestO2EntropyStandard(t *testing.T) {
	// Standard molar entropy of O2 at 298.15 K, 1 atm is 205.15 J/(mol K).
	sp := air()
	o2 := sp[AirO2]
	s := o2.Entropy(298.15, AtmPa) * o2.W
	if math.Abs(s-205.15) > 2 {
		t.Errorf("S(O2,298K)=%g J/mol/K want ~205.15", s)
	}
}

func TestN2EntropyStandard(t *testing.T) {
	// Standard molar entropy of N2 at 298.15 K is 191.6 J/(mol K).
	sp := air()
	n2 := sp[AirN2]
	s := n2.Entropy(298.15, AtmPa) * n2.W
	if math.Abs(s-191.6) > 2 {
		t.Errorf("S(N2,298K)=%g J/mol/K want ~191.6", s)
	}
}

func TestElectronProperties(t *testing.T) {
	sp := air()
	e := sp[AirE]
	if e.Charge != -1 {
		t.Error("electron charge wrong")
	}
	if e.IsMolecule() {
		t.Error("electron is not a molecule")
	}
	// Electron gas constant enormous: R = Ru/5.49e-7 ~ 1.5e7.
	if e.R() < 1e7 {
		t.Errorf("R(e-)=%g suspiciously small", e.R())
	}
}

// TestTwoTemperatureEnthalpy: the frozen-vibration enthalpy the shock tube
// jumps across the front, (cv_tr + R) T + e_vib,el(Tv) + h_f, equals the
// one-temperature enthalpy when Tv = T and drops when vibration is cold.
func TestTwoTemperatureEnthalpy(t *testing.T) {
	m := NewMixture(air())
	y := make([]float64, m.Len())
	y[AirN2] = 1
	h := func(T, Tv float64) float64 {
		return (m.CvTransRot(y)+m.R(y))*T + m.EVibPool(Tv, y) + m.HFormation(y)
	}
	h1 := m.Enthalpy(5000, y)
	if h2 := h(5000, 5000); math.Abs(h1-h2) > 1e-6*math.Abs(h1) {
		t.Errorf("two-T enthalpy inconsistent: %g vs %g", h1, h2)
	}
	if h(5000, 300) >= h1 {
		t.Error("frozen vibration should reduce enthalpy")
	}
}

func TestSpeciesString(t *testing.T) {
	sp := air()
	if got := sp[AirNOp].String(); got == "" {
		t.Error("empty String()")
	}
}
