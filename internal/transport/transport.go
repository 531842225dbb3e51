// Package transport provides viscosity, thermal conductivity and diffusion
// models for high-temperature gas mixtures: Blottner-style curve fits for the
// air species, a kinetic-theory Lennard-Jones fallback for everything else,
// the Wilke semi-empirical mixing rule, Eucken conductivities, Sutherland's
// law for ideal-gas solvers, and constant-Lewis-number diffusion.
package transport

import (
	"math"
	"sync"

	"cataero/internal/thermo"
)

// blottner holds the A, B, C coefficients of the Blottner viscosity fits
// mu = 0.1 * exp[(A lnT + B) lnT + C] (kg/(m s)) for the air species.
var blottner = map[string][3]float64{
	"N2":  {0.0268142, 0.3177838, -11.3155513},
	"O2":  {0.0449290, -0.0826158, -9.2019475},
	"NO":  {0.0436378, -0.0335511, -9.5767430},
	"N":   {0.0115572, 0.6031679, -12.4327495},
	"O":   {0.0203144, 0.4294404, -11.6031403},
	"N2+": {0.0268142, 0.3177838, -11.3155513},
	"O2+": {0.0449290, -0.0826158, -9.2019475},
	"NO+": {0.0436378, -0.0335511, -9.5767430},
	"N+":  {0.0115572, 0.6031679, -12.4327495},
	"O+":  {0.0203144, 0.4294404, -11.6031403},
}

// SpeciesViscosity returns the viscosity of one species at temperature T.
// Air species use the Blottner curve fits; everything else falls back to
// first-order Chapman-Enskog kinetic theory with the species'
// Lennard-Jones parameters. Electrons get a negligible placeholder value.
func SpeciesViscosity(s *thermo.Species, T float64) float64 {
	if s.Name == "e-" {
		return 1e-9
	}
	if c, ok := blottner[s.Name]; ok {
		lt := math.Log(T)
		return 0.1 * math.Exp((c[0]*lt+c[1])*lt+c[2])
	}
	return kineticViscosity(s, T)
}

// kineticViscosity is the Chapman-Enskog first approximation:
// mu = 2.6693e-6 sqrt(W_g/mol * T) / (sigma_A^2 Omega22), in kg/(m s).
func kineticViscosity(s *thermo.Species, T float64) float64 {
	sigmaA := s.LJSigma * 1e10 // Angstrom
	if sigmaA <= 0 {
		sigmaA = 3.5
	}
	eps := s.LJEps
	if eps <= 0 {
		eps = 100
	}
	omega := Omega22(T / eps)
	return 2.6693e-6 * math.Sqrt(s.W*1000*T) / (sigmaA * sigmaA * omega)
}

// Omega22 is the Neufeld correlation for the reduced (2,2) collision
// integral as a function of reduced temperature T* = kT/eps.
func Omega22(tStar float64) float64 {
	if tStar < 0.1 {
		tStar = 0.1
	}
	return 1.16145/math.Pow(tStar, 0.14874) +
		0.52487*math.Exp(-0.77320*tStar) +
		2.16178*math.Exp(-2.43787*tStar)
}

// SpeciesConductivity returns the Eucken thermal conductivity of a species
// with viscosity mu at T: k = mu (5/2 cv_trans + cv_rot + cv_vib+elec),
// W/(m K).
func SpeciesConductivity(s *thermo.Species, T, mu float64) float64 {
	R := s.R()
	cvTr := 1.5 * R
	cvRot := s.CvTransRot() - cvTr
	cvInt := s.CvVib(T) + s.CvElec(T)
	return mu * (2.5*cvTr + cvRot + cvInt)
}

// Mixture bundles transport evaluation for a thermo mixture. It holds the
// molar-mass factors of Wilke's pair weights, which depend only on the
// species pair, so each mixing sum costs one square root per pair. It is
// safe for concurrent use: each call takes its own scratch from a pool.
type Mixture struct {
	Mix *thermo.Mixture
	// wPow[i*n+j] = (W_j/W_i)^(1/4) and wDen[i*n+j] = sqrt(8 (1 + W_i/W_j))
	// for the n species of Mix.
	wPow, wDen []float64
	// scratch hands each call a *[]float64 of 3n entries: the mole
	// fractions and two species-property columns.
	scratch sync.Pool
}

// NewMixture wraps m and tabulates its Wilke pair factors.
func NewMixture(m *thermo.Mixture) *Mixture {
	n := m.Len()
	t := &Mixture{Mix: m, wPow: make([]float64, n*n), wDen: make([]float64, n*n)}
	for i, si := range m.Species {
		for j, sj := range m.Species {
			t.wPow[i*n+j] = math.Pow(sj.W/si.W, 0.25)
			t.wDen[i*n+j] = math.Sqrt(8 * (1 + si.W/sj.W))
		}
	}
	t.scratch.New = func() any {
		buf := make([]float64, 3*n)
		return &buf
	}
	return t
}

// columns takes a scratch buffer from the pool and splits it into the mole
// fractions of y and two zeroed species columns. The caller returns buf.
func (t *Mixture) columns(y []float64) (buf *[]float64, x, a, b []float64) {
	buf = t.scratch.Get().(*[]float64)
	n := t.Mix.Len()
	x, a, b = (*buf)[:n], (*buf)[n:2*n], (*buf)[2*n:3*n]
	t.Mix.MoleFractionsTo(x, y)
	clear(a)
	clear(b)
	return buf, x, a, b
}

// wilke combines species viscosities (or conductivities) phi with mole
// fractions x into a mixture value by Wilke's semi-empirical rule:
//
//	mix = sum_i x_i phi_i / sum_j x_j Phi_ij
//	Phi_ij = [1 + sqrt(phi_i/phi_j) (W_j/W_i)^(1/4)]^2 / sqrt(8 (1 + W_i/W_j))
func (t *Mixture) wilke(x, phi []float64) float64 {
	n := len(x)
	mix := 0.0
	for i := 0; i < n; i++ {
		if x[i] <= 0 {
			continue
		}
		wPow, wDen := t.wPow[i*n:(i+1)*n], t.wDen[i*n:(i+1)*n]
		den := 0.0
		for j := 0; j < n; j++ {
			if x[j] <= 0 {
				continue
			}
			var wij float64
			if phi[j] <= 0 {
				wij = 1
			} else {
				r := math.Sqrt(phi[i]/phi[j]) * wPow[j]
				wij = (1 + r) * (1 + r) / wDen[j]
			}
			den += x[j] * wij
		}
		if den > 0 {
			mix += x[i] * phi[i] / den
		}
	}
	return mix
}

// Viscosity returns the Wilke-mixed viscosity at T for mass fractions y.
func (t *Mixture) Viscosity(T float64, y []float64) float64 {
	buf, x, mu, _ := t.columns(y)
	defer t.scratch.Put(buf)
	for i, s := range t.Mix.Species {
		if x[i] > 0 {
			mu[i] = SpeciesViscosity(s, T)
		}
	}
	return t.wilke(x, mu)
}

// ViscosityConductivity returns the Wilke-mixed viscosity and thermal
// conductivity at T for mass fractions y, evaluating each species viscosity
// once for both.
func (t *Mixture) ViscosityConductivity(T float64, y []float64) (mu, k float64) {
	buf, x, mus, ks := t.columns(y)
	defer t.scratch.Put(buf)
	for i, s := range t.Mix.Species {
		if x[i] > 0 {
			mus[i] = SpeciesViscosity(s, T)
			ks[i] = SpeciesConductivity(s, T, mus[i])
		}
	}
	return t.wilke(x, mus), t.wilke(x, ks)
}

// FrozenPrandtl returns cp mu / k for a mixed viscosity and conductivity
// already in hand, or 0.72 where the conductivity vanishes.
func FrozenPrandtl(cp, mu, k float64) float64 {
	if k <= 0 {
		return 0.72
	}
	return cp * mu / k
}

// Sutherland returns the Sutherland-law air viscosity, the standard model
// for the ideal-gas solver paths: mu = 1.458e-6 T^1.5/(T+110.4).
//
//cataero:hotpath
func Sutherland(T float64) float64 {
	return 1.458e-6 * T * math.Sqrt(T) / (T + 110.4)
}

// SutherlandConductivity returns the matching ideal-air conductivity using
// a constant Prandtl number 0.72 and cp = 1004.5 J/(kg K).
//
//cataero:hotpath
func SutherlandConductivity(T float64) float64 {
	return Sutherland(T) * 1004.5 / 0.72
}
