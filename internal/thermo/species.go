package thermo

import (
	"fmt"
	"math"
)

// RotorKind classifies the rotational structure of a species.
type RotorKind int

const (
	Atom RotorKind = iota // no rotational or vibrational modes
	Linear
	Nonlinear
)

// VibMode is one harmonic vibrational mode with characteristic temperature
// Theta (K) and degeneracy G.
type VibMode struct {
	Theta float64
	G     int
}

// ElecLevel is one electronic level with degeneracy G and excitation
// temperature Theta (K) above the ground state.
type ElecLevel struct {
	G     int
	Theta float64
}

// Species carries the constant data for one chemical species. All
// thermodynamic methods hang off this type; they are pure functions of
// temperature so a Species can be shared freely across goroutines.
type Species struct {
	Name   string
	W      float64 // molar mass, kg/mol
	Charge int     // elementary charges (-1, 0, +1)
	Hf0    float64 // formation enthalpy at 0 K, J/kg
	Rotor  RotorKind
	ThetaR [3]float64 // rotational characteristic temperatures, K (linear uses [0])
	Sigma  float64    // rotational symmetry number
	Vib    []VibMode
	Elec   []ElecLevel
	Elems  map[string]int // elemental composition, e.g. {"N":1,"O":1} for NO

	// LJSigma and LJEps are Lennard-Jones collision parameters used by the
	// kinetic-theory transport fallback: sigma in m, eps/k in K.
	LJSigma float64
	LJEps   float64
}

// R returns the specific gas constant Ru/W, J/(kg K).
func (s *Species) R() float64 { return Ru / s.W }

// Mass returns the particle mass in kg.
func (s *Species) Mass() float64 { return s.W / NA }

// IsMolecule reports whether the species has vibrational modes.
func (s *Species) IsMolecule() bool { return len(s.Vib) > 0 }

// --- Internal energy contributions (per unit mass, J/kg) ---

// ETrans returns the translational energy 3/2 R T.
func (s *Species) ETrans(T float64) float64 { return 1.5 * s.R() * T }

// ERot returns the fully excited rigid-rotor rotational energy.
func (s *Species) ERot(T float64) float64 {
	switch s.Rotor {
	case Linear:
		return s.R() * T
	case Nonlinear:
		return 1.5 * s.R() * T
	default:
		return 0
	}
}

// EVib returns the harmonic-oscillator vibrational energy at temperature Tv.
func (s *Species) EVib(Tv float64) float64 {
	if len(s.Vib) == 0 || Tv <= 0 {
		return 0
	}
	e := 0.0
	for _, m := range s.Vib {
		x := m.Theta / Tv
		if x < 500 {
			e += float64(m.G) * m.Theta / (math.Exp(x) - 1)
		}
	}
	return s.R() * e
}

// EElec returns the electronic excitation energy at temperature Te.
func (s *Species) EElec(Te float64) float64 {
	if len(s.Elec) <= 1 || Te <= 0 {
		return 0
	}
	num, den := 0.0, 0.0
	for _, l := range s.Elec {
		x := l.Theta / Te
		if x > 500 {
			continue
		}
		b := float64(l.G) * math.Exp(-x)
		num += b * l.Theta
		den += b
	}
	if den == 0 {
		return 0
	}
	return s.R() * num / den
}

// EInternal returns the total specific internal energy at a single
// temperature T, including the 0 K formation enthalpy:
// e = e_trans + e_rot + e_vib + e_elec + h_f0.
func (s *Species) EInternal(T float64) float64 {
	return s.ETrans(T) + s.ERot(T) + s.EVib(T) + s.EElec(T) + s.Hf0
}

// Enthalpy returns h = e + R T at a single temperature.
func (s *Species) Enthalpy(T float64) float64 {
	return s.EInternal(T) + s.R()*T
}

// --- Specific heats (per unit mass, J/(kg K)) ---

// CvTransRot returns the constant translational+rotational cv.
func (s *Species) CvTransRot() float64 {
	cv := 1.5 * s.R()
	switch s.Rotor {
	case Linear:
		cv += s.R()
	case Nonlinear:
		cv += 1.5 * s.R()
	}
	return cv
}

// CvVib returns the vibrational specific heat at Tv.
func (s *Species) CvVib(Tv float64) float64 {
	if len(s.Vib) == 0 || Tv <= 0 {
		return 0
	}
	cv := 0.0
	for _, m := range s.Vib {
		x := m.Theta / Tv
		if x > 300 {
			continue
		}
		ex := math.Exp(x)
		d := ex - 1
		cv += float64(m.G) * x * x * ex / (d * d)
	}
	return s.R() * cv
}

// CvElec returns the electronic specific heat at Te.
func (s *Species) CvElec(Te float64) float64 {
	if len(s.Elec) <= 1 || Te <= 0 {
		return 0
	}
	q, qt, qtt := 0.0, 0.0, 0.0
	for _, l := range s.Elec {
		x := l.Theta / Te
		if x > 500 {
			continue
		}
		b := float64(l.G) * math.Exp(-x)
		q += b
		qt += b * x
		qtt += b * x * x
	}
	if q == 0 {
		return 0
	}
	m := qt / q
	return s.R() * (qtt/q - m*m)
}

// vibElec returns the vibrational and electronic energies (J/kg) and
// specific heats (J/(kg K)) at temperature T, evaluating each mode's and
// level's exponential once for both. Each value equals EVib, EElec, CvVib
// and CvElec bit for bit: the sums keep their order and their cutoffs (a
// vibrational mode counts toward the energy while Theta/T < 500, toward cv
// only while Theta/T <= 300).
func (s *Species) vibElec(T float64) (eVib, eElec, cvVib, cvElec float64) {
	if T <= 0 {
		return 0, 0, 0, 0
	}
	if len(s.Vib) > 0 {
		e, cv := 0.0, 0.0
		for _, m := range s.Vib {
			x := m.Theta / T
			inE, inCv := x < 500, !(x > 300)
			if !inE && !inCv {
				continue
			}
			ex := math.Exp(x)
			d := ex - 1
			if inE {
				e += float64(m.G) * m.Theta / d
			}
			if inCv {
				cv += float64(m.G) * x * x * ex / (d * d)
			}
		}
		eVib, cvVib = s.R()*e, s.R()*cv
	}
	if len(s.Elec) > 1 {
		num, q, qt, qtt := 0.0, 0.0, 0.0, 0.0
		for _, l := range s.Elec {
			x := l.Theta / T
			if x > 500 {
				continue
			}
			b := float64(l.G) * math.Exp(-x)
			num += b * l.Theta
			q += b
			qt += b * x
			qtt += b * x * x
		}
		if q != 0 {
			m := qt / q
			eElec, cvElec = s.R()*num/q, s.R()*(qtt/q-m*m)
		}
	}
	return eVib, eElec, cvVib, cvElec
}

// enthalpyCp returns Enthalpy(T) and Cp(T) from one vibElec call.
func (s *Species) enthalpyCp(T float64) (h, cp float64) {
	ev, ee, cvv, cve := s.vibElec(T)
	return s.ETrans(T) + s.ERot(T) + ev + ee + s.Hf0 + s.R()*T,
		s.CvTransRot() + cvv + cve + s.R()
}

// Cv returns the full single-temperature cv.
func (s *Species) Cv(T float64) float64 {
	return s.CvTransRot() + s.CvVib(T) + s.CvElec(T)
}

// Cp returns the full single-temperature cp = cv + R.
func (s *Species) Cp(T float64) float64 { return s.Cv(T) + s.R() }

// --- Partition functions (per unit volume where noted) ---

// QTransV returns the translational partition function per unit volume,
// (2 pi m k T / h^2)^{3/2}, in 1/m^3.
func (s *Species) QTransV(T float64) float64 {
	m := s.Mass()
	return math.Pow(2*math.Pi*m*KB*T/(Planck*Planck), 1.5)
}

// QRot returns the rigid-rotor rotational partition function.
func (s *Species) QRot(T float64) float64 {
	switch s.Rotor {
	case Linear:
		return T / (s.Sigma * s.ThetaR[0])
	case Nonlinear:
		return math.Sqrt(math.Pi) / s.Sigma *
			math.Sqrt(T*T*T/(s.ThetaR[0]*s.ThetaR[1]*s.ThetaR[2]))
	default:
		return 1
	}
}

// QVib returns the harmonic-oscillator vibrational partition function at Tv
// (energy zero at the vibrational ground state).
func (s *Species) QVib(Tv float64) float64 {
	q := 1.0
	for _, m := range s.Vib {
		x := m.Theta / Tv
		if x > 500 {
			continue
		}
		q *= math.Pow(1-math.Exp(-x), -float64(m.G))
	}
	return q
}

// QElec returns the electronic partition function at Te.
func (s *Species) QElec(Te float64) float64 {
	if len(s.Elec) == 0 {
		return 1
	}
	q := 0.0
	for _, l := range s.Elec {
		x := l.Theta / Te
		if x > 500 {
			continue
		}
		q += float64(l.G) * math.Exp(-x)
	}
	if q == 0 {
		q = float64(s.Elec[0].G)
	}
	return q
}

// LnQEffV returns ln of the effective per-unit-volume partition function
// including the formation-energy Boltzmann factor:
// ln[ QtransV * Qrot * Qvib * Qelec * exp(-eps0/kT) ].
// This is the quantity the Gibbs equilibrium solver and the kinetic
// equilibrium constants are built from, guaranteeing their mutual
// consistency.
func (s *Species) LnQEffV(T float64) float64 {
	eps0 := s.Hf0 * s.W / NA // formation energy per particle, J
	ln := 1.5*math.Log(2*math.Pi*s.Mass()*KB*T/(Planck*Planck)) +
		math.Log(s.QRot(T)) + math.Log(s.QVib(T)) + math.Log(s.QElec(T)) -
		eps0/(KB*T)
	return ln
}

// Entropy returns the specific entropy s(T,p) in J/(kg K) from the RRHO
// partition functions (Sackur-Tetrode plus internal contributions).
func (s *Species) Entropy(T, p float64) float64 {
	if T <= 0 || p <= 0 {
		return 0
	}
	R := s.R()
	// Translational: Sackur-Tetrode with n = p/(kT).
	st := R * (math.Log(s.QTransV(T)*KB*T/p) + 2.5)
	// Rotational.
	sr := 0.0
	switch s.Rotor {
	case Linear:
		sr = R * (math.Log(s.QRot(T)) + 1)
	case Nonlinear:
		sr = R * (math.Log(s.QRot(T)) + 1.5)
	}
	// Vibrational.
	sv := R*math.Log(s.QVib(T)) + s.EVib(T)/T
	// Electronic.
	se := R*math.Log(s.QElec(T)) + s.EElec(T)/T
	return st + sr + sv + se
}

func (s *Species) String() string {
	return fmt.Sprintf("%s (W=%.4f g/mol, q=%+d)", s.Name, s.W*1000, s.Charge)
}
