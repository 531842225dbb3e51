package thermo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func airMix() (*Mixture, []float64) {
	m := NewMixture(AirSpecies11())
	return m, AirFreestreamMassFractions(m.Species)
}

func TestMeanWAir(t *testing.T) {
	m, y := airMix()
	// Standard air: ~28.85e-3 kg/mol for the 0.767/0.233 N2/O2 split.
	w := m.MeanW(y)
	if math.Abs(w-28.85e-3) > 0.1e-3 {
		t.Errorf("MeanW=%g want ~28.85e-3", w)
	}
	// R ~ 288 J/(kg K).
	if r := m.R(y); math.Abs(r-288.2) > 1.5 {
		t.Errorf("R=%g want ~288", r)
	}
}

func TestMoleMassFractionRoundTrip(t *testing.T) {
	m, y := airMix()
	x := m.MoleFractions(y)
	y2 := m.MassFractions(x)
	for i := range y {
		if math.Abs(y[i]-y2[i]) > 1e-12 {
			t.Errorf("round trip species %d: %g vs %g", i, y[i], y2[i])
		}
	}
	// Mole fractions sum to 1.
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("mole fractions sum %g", sum)
	}
}

// Property: for random compositions, conversions preserve normalization.
func TestFractionConversionProperty(t *testing.T) {
	m, _ := airMix()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		y := make([]float64, m.Len())
		for i := range y {
			y[i] = r.Float64()
		}
		Normalize(y)
		x := m.MoleFractions(y)
		sum := 0.0
		for _, v := range x {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestGammaAirCold(t *testing.T) {
	m, y := airMix()
	// Cold air: gamma = 1.4.
	g := m.GammaFrozen(300, y)
	if math.Abs(g-1.4) > 0.01 {
		t.Errorf("gamma(300K)=%g want 1.4", g)
	}
	// Hot air with vibration: gamma drops toward ~1.3.
	gHot := m.GammaFrozen(3000, y)
	if gHot >= g || gHot < 1.25 {
		t.Errorf("gamma(3000K)=%g should be in (1.25,%g)", gHot, g)
	}
}

func TestSoundSpeedAir(t *testing.T) {
	m, y := airMix()
	a := m.SoundSpeedFrozen(288.15, y)
	if math.Abs(a-340) > 4 {
		t.Errorf("a=%g want ~340 m/s", a)
	}
}

func TestPressureDensityRoundTrip(t *testing.T) {
	m, y := airMix()
	p := m.Pressure(1.225, 288.15, y)
	if math.Abs(p-101325) > 1500 {
		t.Errorf("p=%g want ~101325", p)
	}
	rho := m.Density(p, 288.15, y)
	if math.Abs(rho-1.225) > 1e-9 {
		t.Errorf("rho=%g want 1.225", rho)
	}
}

func TestTemperatureFromHInverse(t *testing.T) {
	m, y := airMix()
	for _, T := range []float64{300, 2500, 9000} {
		h := m.Enthalpy(T, y)
		got, err := m.TemperatureFromH(h, y, 500)
		if err != nil {
			t.Fatalf("T=%g: %v", T, err)
		}
		if math.Abs(got-T) > 1e-3*T {
			t.Errorf("TemperatureFromH: got %g want %g", got, T)
		}
	}
}

func TestVibPoolRoundTrip(t *testing.T) {
	m, _ := airMix()
	// Mixed dissociated composition with molecules present.
	y := make([]float64, m.Len())
	y[AirN2], y[AirO2], y[AirNO], y[AirN], y[AirO] = 0.5, 0.1, 0.05, 0.15, 0.2
	for _, Tv := range []float64{600, 2000, 6000, 12000} {
		ev := m.EVibPool(Tv, y)
		got, err := m.TvFromPool(ev, y, 0)
		if err != nil {
			t.Fatalf("Tv=%g: %v", Tv, err)
		}
		if math.Abs(got-Tv) > 2e-3*Tv {
			t.Errorf("TvFromPool: got %g want %g", got, Tv)
		}
	}
}

// TestTwoTConsistencyWithOneT: the two-temperature energy split the shock
// tube's relaxation zone uses (trans-rot at T, vibrational pool at Tv,
// formation enthalpy) sums to the one-temperature energy when Tv = T.
func TestTwoTConsistencyWithOneT(t *testing.T) {
	m, y := airMix()
	T := 4000.0
	e1 := m.EInternal(T, y)
	e2 := m.CvTransRot(y)*T + m.EVibPool(T, y) + m.HFormation(y)
	if math.Abs(e1-e2) > 1e-8*math.Abs(e1) {
		t.Errorf("two-T energy at Tv=T != EInternal(T): %g vs %g", e2, e1)
	}
}

func TestElementsAndIndex(t *testing.T) {
	m, _ := airMix()
	elems := m.Elements()
	if len(elems) != 2 || elems[0] != "N" || elems[1] != "O" {
		t.Errorf("elements: %v", elems)
	}
	if m.Index("NO") != AirNO {
		t.Errorf("Index(NO)=%d", m.Index("NO"))
	}
	if m.Index("Xe") != -1 {
		t.Error("Index of missing species should be -1")
	}
}

func TestTitanMixture(t *testing.T) {
	m := NewMixture(TitanSpecies())
	y := TitanFreestreamMassFractions(m.Species)
	elems := m.Elements()
	if len(elems) != 3 { // C, H, N
		t.Errorf("titan elements: %v", elems)
	}
	w := m.MeanW(y)
	// 95/5 N2/CH4 by mole: W ~ 0.95*28 + 0.05*16 = 27.4 g/mol.
	if math.Abs(w-27.4e-3) > 0.5e-3 {
		t.Errorf("titan MeanW=%g want ~27.4e-3", w)
	}
	// CH4 cv includes rotation 3/2 R.
	ch4 := m.Species[TiCH4]
	if cv := ch4.CvTransRot(); math.Abs(cv-3*ch4.R()) > 1e-9 {
		t.Errorf("CH4 cv_tr=%g want %g", cv, 3*ch4.R())
	}
}

func TestNumberDensities(t *testing.T) {
	m, y := airMix()
	n := m.NumberDensities(1.225, y)
	tot := 0.0
	for _, v := range n {
		tot += v
	}
	// Loschmidt-like: ~2.5e25 /m^3 South at sea level conditions.
	if tot < 2.3e25 || tot > 2.8e25 {
		t.Errorf("total number density %g", tot)
	}
}

func TestNormalize(t *testing.T) {
	y := []float64{2, -1, 2}
	Normalize(y)
	if y[1] != 0 || math.Abs(y[0]-0.5) > 1e-12 || math.Abs(y[2]-0.5) > 1e-12 {
		t.Errorf("normalize: %v", y)
	}
	z := []float64{0, 0}
	Normalize(z) // must not divide by zero
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero vector normalize changed values")
	}
}

// temperatureFromHRef is TemperatureFromH's Newton loop as it stood before
// the one-pass enthalpyCp: Enthalpy and Cp called apart on every iterate.
func temperatureFromHRef(m *Mixture, h float64, y []float64, T0 float64) (float64, error) {
	T := T0
	if T <= 0 {
		T = 1000
	}
	for i := 0; i < 100; i++ {
		f := m.Enthalpy(T, y) - h
		cp := m.Cp(T, y)
		if cp <= 0 {
			return 0, fmt.Errorf("thermo: nonpositive cp at T=%g", T)
		}
		dT := f / cp
		if dT > 0.5*T {
			dT = 0.5 * T
		}
		if dT < -2*T {
			dT = -2 * T
		}
		T -= dT
		if T < 10 {
			T = 10
		}
		if math.Abs(dT) < 1e-8*T {
			return T, nil
		}
	}
	return T, fmt.Errorf("thermo: TemperatureFromH failed to converge (h=%g)", h)
}

// tvFromPoolRef is TvFromPool's Newton loop as it stood before the one-pass
// vibPoolCv: EVibPool and CvVibPool called apart on every iterate. The
// bisection fallback is unchanged, so the reference stops where it starts.
func tvFromPoolRef(m *Mixture, ev float64, y []float64, Tv0 float64) (float64, bool) {
	Tv := Tv0
	if Tv <= 0 {
		Tv = 2000
	}
	for i := 0; i < 80; i++ {
		f := m.EVibPool(Tv, y) - ev
		cv := m.CvVibPool(Tv, y)
		if cv < 1e-12 {
			break
		}
		dT := f / cv
		if dT > 0.5*Tv {
			dT = 0.5 * Tv
		}
		if dT < -0.5*Tv {
			dT = -0.5 * Tv
		}
		Tv -= dT
		if Tv < 10 {
			Tv = 10
		}
		if math.Abs(dT) < 1e-8*Tv {
			return Tv, true
		}
	}
	return 0, false
}

// TestVibElecOnePass pins the one-pass helper to the single-quantity forms
// bit for bit: vibElec against EVib, EElec, CvVib and CvElec, enthalpyCp
// against Enthalpy and Cp, for every air-11 and Titan species from 10 to
// 60000 K, at the cutoffs (T = Theta_v/k for k around 300 and 500) and at
// T <= 0. The Newton loops built on it, TemperatureFromH and TvFromPool,
// must land on the same bits as their two-call references.
func TestVibElecOnePass(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	air := NewMixture(AirSpecies11())
	titan := NewMixture(TitanSpecies())
	for _, m := range []*Mixture{air, titan} {
		for _, s := range m.Species {
			temps := []float64{0, -300}
			for T := 10.0; T <= 60000; T *= 1.07 {
				temps = append(temps, T)
			}
			for _, mode := range s.Vib {
				for _, k := range []float64{250, 300, 330, 400, 499, 500, 600} {
					temps = append(temps, mode.Theta/k)
				}
			}
			for _, T := range temps {
				ev, ee, cvv, cve := s.vibElec(T)
				h, cp := s.enthalpyCp(T)
				for _, c := range []struct {
					name      string
					got, want float64
				}{
					{"EVib", ev, s.EVib(T)},
					{"EElec", ee, s.EElec(T)},
					{"CvVib", cvv, s.CvVib(T)},
					{"CvElec", cve, s.CvElec(T)},
					{"EVib+EElec", ev + ee, s.EVib(T) + s.EElec(T)},
					{"CvVib+CvElec", cvv + cve, s.CvVib(T) + s.CvElec(T)},
					{"Enthalpy", h, s.Enthalpy(T)},
					{"Cp", cp, s.Cp(T)},
				} {
					if !same(c.got, c.want) {
						t.Errorf("%s T=%.17g: %s = %.17g, want %.17g", s.Name, T, c.name, c.got, c.want)
					}
				}
			}
		}
	}

	// The Newton loops, over compositions with and without electrons.
	ionized := make([]float64, air.Len())
	for s := range ionized {
		ionized[s] = 1 / float64(air.Len())
	}
	for _, c := range []struct {
		m *Mixture
		y []float64
	}{
		{air, AirFreestreamMassFractions(air.Species)},
		{air, ionized},
		{titan, TitanFreestreamMassFractions(titan.Species)},
	} {
		for _, T := range []float64{300, 2000, 9000, 30000, 60000} {
			for _, T0 := range []float64{0, 500, T} {
				h := c.m.Enthalpy(T, c.y)
				got, err := c.m.TemperatureFromH(h, c.y, T0)
				want, errRef := temperatureFromHRef(c.m, h, c.y, T0)
				if !same(got, want) || (err == nil) != (errRef == nil) {
					t.Errorf("TemperatureFromH(h(%g), T0=%g) = %.17g (%v), want %.17g (%v)", T, T0, got, err, want, errRef)
				}
				ev := c.m.EVibPool(T, c.y)
				gotV, err := c.m.TvFromPool(ev, c.y, T0)
				if wantV, ok := tvFromPoolRef(c.m, ev, c.y, T0); ok && (!same(gotV, wantV) || err != nil) {
					t.Errorf("TvFromPool(ev(%g), Tv0=%g) = %.17g (%v), want %.17g", T, T0, gotV, err, wantV)
				}
			}
		}
	}
}
