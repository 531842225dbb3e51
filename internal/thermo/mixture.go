package thermo

import (
	"fmt"
	"math"
)

// Mixture bundles a species list with helpers for mixture-level
// thermodynamics. Mass fractions are passed explicitly to every method so a
// single Mixture can serve many flow states concurrently.
type Mixture struct {
	Species []*Species
	index   map[string]int
	// mwA[s*n+r] and mwB[s*n+r] are the Millikan-White constants of
	// molecule s relaxing against partner r (see MillikanWhiteTau); rows of
	// species without a vibrational mode stay zero.
	mwA, mwB []float64
}

// NewMixture wraps a species list and tabulates its Millikan-White pair
// constants.
func NewMixture(species []*Species) *Mixture {
	n := len(species)
	m := &Mixture{Species: species, index: make(map[string]int, n),
		mwA: make([]float64, n*n), mwB: make([]float64, n*n)}
	for i, s := range species {
		m.index[s.Name] = i
		if len(s.Vib) == 0 {
			continue
		}
		for j, r := range species {
			m.mwA[i*n+j], m.mwB[i*n+j] = millikanWhiteAB(s, r)
		}
	}
	return m
}

// Len returns the number of species.
func (m *Mixture) Len() int { return len(m.Species) }

// Index returns the position of the named species, or -1.
func (m *Mixture) Index(name string) int {
	if i, ok := m.index[name]; ok {
		return i
	}
	return -1
}

// Elements returns the sorted list of chemical elements present.
func (m *Mixture) Elements() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range m.Species {
		for e := range s.Elems {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	// Deterministic order (insertion order depends on map; sort by name).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// MeanW returns the mixture molar mass (kg/mol) for mass fractions y.
func (m *Mixture) MeanW(y []float64) float64 {
	inv := 0.0
	for i, s := range m.Species {
		inv += y[i] / s.W
	}
	if inv <= 0 {
		return 0
	}
	return 1 / inv
}

// R returns the mixture specific gas constant for mass fractions y.
func (m *Mixture) R(y []float64) float64 { return Ru / m.MeanW(y) }

// MoleFractions converts mass fractions to mole fractions.
func (m *Mixture) MoleFractions(y []float64) []float64 {
	x := make([]float64, len(y))
	m.MoleFractionsTo(x, y)
	return x
}

// MoleFractionsTo writes the mole fractions of mass fractions y into x.
func (m *Mixture) MoleFractionsTo(x, y []float64) {
	w := m.MeanW(y)
	for i, s := range m.Species {
		x[i] = y[i] * w / s.W
	}
}

// MassFractions converts mole fractions to mass fractions.
func (m *Mixture) MassFractions(x []float64) []float64 {
	y := make([]float64, len(x))
	wbar := 0.0
	for i, s := range m.Species {
		wbar += x[i] * s.W
	}
	for i, s := range m.Species {
		y[i] = x[i] * s.W / wbar
	}
	return y
}

// Pressure returns p = rho * sum_s (y_s R_s) * T.
func (m *Mixture) Pressure(rho, T float64, y []float64) float64 {
	return rho * m.R(y) * T
}

// Density returns rho from p, T, y.
func (m *Mixture) Density(p, T float64, y []float64) float64 {
	return p / (m.R(y) * T)
}

// Enthalpy returns the mixture specific enthalpy at a single temperature.
func (m *Mixture) Enthalpy(T float64, y []float64) float64 {
	h := 0.0
	for i, s := range m.Species {
		if y[i] != 0 {
			h += y[i] * s.Enthalpy(T)
		}
	}
	return h
}

// EInternal returns the mixture specific internal energy at one temperature.
func (m *Mixture) EInternal(T float64, y []float64) float64 {
	e := 0.0
	for i, s := range m.Species {
		if y[i] != 0 {
			e += y[i] * s.EInternal(T)
		}
	}
	return e
}

// Cp returns the frozen mixture specific heat at constant pressure.
func (m *Mixture) Cp(T float64, y []float64) float64 {
	cp := 0.0
	for i, s := range m.Species {
		if y[i] != 0 {
			cp += y[i] * s.Cp(T)
		}
	}
	return cp
}

// GammaFrozen returns the frozen ratio of specific heats.
func (m *Mixture) GammaFrozen(T float64, y []float64) float64 {
	cp := m.Cp(T, y)
	return cp / (cp - m.R(y))
}

// SoundSpeedFrozen returns the frozen speed of sound sqrt(gamma R T).
func (m *Mixture) SoundSpeedFrozen(T float64, y []float64) float64 {
	return math.Sqrt(m.GammaFrozen(T, y) * m.R(y) * T)
}

// TemperatureFromH inverts h(T) = h by Newton iteration.
func (m *Mixture) TemperatureFromH(h float64, y []float64, T0 float64) (float64, error) {
	T := T0
	if T <= 0 {
		T = 1000
	}
	for i := 0; i < 100; i++ {
		hT, cp := m.enthalpyCp(T, y)
		f := hT - h
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

// enthalpyCp returns Enthalpy(T, y) and Cp(T, y), bit for bit, from one
// vibElec call per species.
func (m *Mixture) enthalpyCp(T float64, y []float64) (h, cp float64) {
	for i, s := range m.Species {
		if y[i] != 0 {
			hs, cps := s.enthalpyCp(T)
			h += y[i] * hs
			cp += y[i] * cps
		}
	}
	return h, cp
}

// Entropy returns the mixture specific entropy at (T, p) including the
// entropy of mixing: s = sum_s y_s s_s(T, x_s p), J/(kg K).
func (m *Mixture) Entropy(T, p float64, y []float64) float64 {
	x := m.MoleFractions(y)
	s := 0.0
	for i, sp := range m.Species {
		if y[i] <= 0 || x[i] <= 0 {
			continue
		}
		s += y[i] * sp.Entropy(T, p*x[i])
	}
	return s
}

// --- Two-temperature bookkeeping ---

// EVibPool returns the vibrational-electronic-electron energy pool at Tv:
// molecular vibration, electronic excitation of all heavy species, and free
// electron translation, per unit mixture mass.
func (m *Mixture) EVibPool(Tv float64, y []float64) float64 {
	e := 0.0
	for i, s := range m.Species {
		if y[i] == 0 {
			continue
		}
		if s.Name == "e-" {
			e += y[i] * 1.5 * s.R() * Tv
			continue
		}
		e += y[i] * (s.EVib(Tv) + s.EElec(Tv))
	}
	return e
}

// CvVibPool returns d(EVibPool)/dTv. TvFromPool gets it from vibPoolCv, so
// this two-call form is the reference its tests check that one pass against.
func (m *Mixture) CvVibPool(Tv float64, y []float64) float64 {
	cv := 0.0
	for i, s := range m.Species {
		if y[i] == 0 {
			continue
		}
		if s.Name == "e-" {
			cv += y[i] * 1.5 * s.R()
			continue
		}
		cv += y[i] * (s.CvVib(Tv) + s.CvElec(Tv))
	}
	return cv
}

// vibPoolCv returns EVibPool(Tv, y) and CvVibPool(Tv, y), bit for bit, from
// one vibElec call per species.
func (m *Mixture) vibPoolCv(Tv float64, y []float64) (e, cv float64) {
	for i, s := range m.Species {
		if y[i] == 0 {
			continue
		}
		if s.Name == "e-" {
			e += y[i] * 1.5 * s.R() * Tv
			cv += y[i] * 1.5 * s.R()
			continue
		}
		ev, ee, cvv, cve := s.vibElec(Tv)
		e += y[i] * (ev + ee)
		cv += y[i] * (cvv + cve)
	}
	return e, cv
}

// CvTransRot returns the frozen translational-rotational cv of heavy
// particles (electron translation excluded: it lives in the Tv pool).
func (m *Mixture) CvTransRot(y []float64) float64 {
	cv := 0.0
	for i, s := range m.Species {
		if y[i] == 0 {
			continue
		}
		if s.Name == "e-" {
			continue
		}
		cv += y[i] * s.CvTransRot()
	}
	return cv
}

// HFormation returns the mixture 0 K formation enthalpy.
func (m *Mixture) HFormation(y []float64) float64 {
	h := 0.0
	for i, s := range m.Species {
		h += y[i] * s.Hf0
	}
	return h
}

// TvFromPool inverts EVibPool(Tv) = ev by Newton with bisection fallback.
func (m *Mixture) TvFromPool(ev float64, y []float64, Tv0 float64) (float64, error) {
	Tv := Tv0
	if Tv <= 0 {
		Tv = 2000
	}
	for i := 0; i < 80; i++ {
		e, cv := m.vibPoolCv(Tv, y)
		f := e - ev
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
			return Tv, nil
		}
	}
	// Bisection fallback over a wide range.
	lo, hi := 10.0, 80000.0
	flo := m.EVibPool(lo, y) - ev
	fhi := m.EVibPool(hi, y) - ev
	if flo*fhi > 0 {
		if math.Abs(flo) < math.Abs(fhi) {
			return lo, nil
		}
		return hi, nil
	}
	for i := 0; i < 100; i++ {
		mid := 0.5 * (lo + hi)
		fm := m.EVibPool(mid, y) - ev
		if fm*flo <= 0 {
			hi = mid
		} else {
			lo, flo = mid, fm
		}
	}
	return 0.5 * (lo + hi), nil
}

// NumberDensities returns per-species number densities (1/m^3) for density
// rho and mass fractions y.
func (m *Mixture) NumberDensities(rho float64, y []float64) []float64 {
	n := make([]float64, len(y))
	for i, s := range m.Species {
		n[i] = rho * y[i] / s.W * NA
	}
	return n
}

// Normalize scales y so mass fractions sum to one, clipping negatives to 0.
func Normalize(y []float64) {
	sum := 0.0
	for i := range y {
		if y[i] < 0 {
			y[i] = 0
		}
		sum += y[i]
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range y {
			y[i] *= inv
		}
	}
}
