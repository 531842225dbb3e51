package chem

import (
	"fmt"
	"math"

	"cataero/internal/numerics"
	"cataero/internal/thermo"
)

// RateTMode selects the controlling temperature of a forward rate in the
// two-temperature model.
type RateTMode int

const (
	// TTrans evaluates the rate at the heavy-particle temperature T.
	TTrans RateTMode = iota
	// TaGeom evaluates at Park's geometric mean sqrt(T*Tv) (dissociation).
	TaGeom
	// TElectron evaluates at the electron/vibrational temperature Tv.
	TElectron
)

// Stoich is one species participation in a reaction.
type Stoich struct {
	Sp int     // species index in the mixture
	Nu float64 // stoichiometric coefficient (positive)
}

// Reaction is an elementary reversible reaction with a modified-Arrhenius
// forward rate kf = A T^N exp(-Theta/T) (SI: mol, m^3, s) and a backward
// rate from the partition-function equilibrium constant.
type Reaction struct {
	Name      string
	LHS, RHS  []Stoich
	A         float64 // pre-exponential, m^3/(mol s) per reaction order
	N         float64 // temperature exponent
	Theta     float64 // activation temperature, K
	TMode     RateTMode
	ThirdBody bool
	Eff       []float64 // per-species third-body efficiency (len = n species)
}

// Kf returns the forward rate coefficient at controlling temperature Tc.
func (r *Reaction) Kf(Tc float64) float64 {
	if Tc <= 0 {
		return 0
	}
	return r.A * math.Pow(Tc, r.N) * math.Exp(-r.Theta/Tc)
}

// ControllingT returns the temperature at which the forward rate is
// evaluated in the two-temperature model.
func (r *Reaction) ControllingT(T, Tv float64) float64 {
	switch r.TMode {
	case TaGeom:
		if Tv <= 0 {
			return T
		}
		return math.Sqrt(T * Tv)
	case TElectron:
		if Tv <= 0 {
			return T
		}
		return Tv
	default:
		return T
	}
}

// Mechanism bundles a mixture with its reaction set and provides source-term
// evaluation. Safe for concurrent read-only use after construction.
type Mechanism struct {
	Mix       *thermo.Mixture
	Reactions []*Reaction
}

// NewMechanism validates and wraps a reaction set.
func NewMechanism(m *thermo.Mixture, rxns []*Reaction) (*Mechanism, error) {
	for _, r := range rxns {
		// Element and charge balance check.
		elems := map[string]float64{}
		charge := 0.0
		for _, st := range r.LHS {
			sp := m.Species[st.Sp]
			for e, k := range sp.Elems {
				elems[e] += st.Nu * float64(k)
			}
			charge += st.Nu * float64(sp.Charge)
		}
		for _, st := range r.RHS {
			sp := m.Species[st.Sp]
			for e, k := range sp.Elems {
				elems[e] -= st.Nu * float64(k)
			}
			charge -= st.Nu * float64(sp.Charge)
		}
		for e, v := range elems {
			if math.Abs(v) > 1e-9 {
				return nil, fmt.Errorf("chem: reaction %q unbalanced in element %s (%+g)", r.Name, e, v)
			}
		}
		if math.Abs(charge) > 1e-9 {
			return nil, fmt.Errorf("chem: reaction %q unbalanced in charge (%+g)", r.Name, charge)
		}
		if r.ThirdBody && len(r.Eff) != m.Len() {
			return nil, fmt.Errorf("chem: reaction %q third-body efficiencies length %d != %d", r.Name, len(r.Eff), m.Len())
		}
	}
	return &Mechanism{Mix: m, Reactions: rxns}, nil
}

// LnKc returns ln of the molar equilibrium constant of reaction r at
// temperature T, from per-unit-volume partition functions:
// ln Kc = sum_products nu (ln q - ln NA) - sum_reactants nu (ln q - ln NA).
func (mech *Mechanism) LnKc(r *Reaction, T float64) float64 {
	ln := 0.0
	for _, st := range r.RHS {
		ln += st.Nu * (mech.Mix.Species[st.Sp].LnQEffV(T) - math.Log(thermo.NA))
	}
	for _, st := range r.LHS {
		ln -= st.Nu * (mech.Mix.Species[st.Sp].LnQEffV(T) - math.Log(thermo.NA))
	}
	return ln
}

// Production fills wdot (mol/(m^3 s), one per species) with the net chemical
// production rates at density rho, temperatures (T, Tv) and mass fractions y.
// Returns the molar concentrations used (mol/m^3) for reuse by callers.
func (mech *Mechanism) Production(rho, T, Tv float64, y []float64, wdot []float64) []float64 {
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
		// Clamp the equilibrium constant so kb stays finite; beyond the
		// clamp the reaction is driven overwhelmingly in one direction and
		// the exact magnitude of the reverse rate is irrelevant.
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
	return c
}

func powNu(c, nu float64) float64 {
	if nu == 1 {
		return c
	}
	if nu == 2 {
		return c * c
	}
	return math.Pow(c, nu)
}

// MassProduction fills dydt with dY_s/dt = wdot_s W_s / rho (1/s).
func (mech *Mechanism) MassProduction(rho, T, Tv float64, y, dydt []float64) {
	wdot := make([]float64, mech.Mix.Len())
	mech.Production(rho, T, Tv, y, wdot)
	for s, sp := range mech.Mix.Species {
		dydt[s] = wdot[s] * sp.W / rho
	}
}

// VibSource returns the vibrational-electronic energy source (W/m^3):
// Landau-Teller translational-vibrational relaxation for molecules,
// collision-limited relaxation of the electronic (and free-electron
// translational) energy toward the heavy-particle temperature, plus the
// pool energy carried by chemical production (non-preferential model).
//
//	Q = sum_s rho_s (epool_s(T) - epool_s(Tv))/tau_s
//	  + sum_s wdot_s W_s epool_s(Tv)
func (mech *Mechanism) VibSource(rho, p, T, Tv float64, y, wdot []float64) float64 {
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
