package thermo

import "math"

// Vibrational relaxation times: Millikan-White correlation with Park's
// high-temperature collision-limited correction. These set the Landau-Teller
// source term used by the two-temperature nonequilibrium solvers.

// MillikanWhiteTau returns the vibrational relaxation time (s) of molecular
// species s against collision partner r at temperature T (K) and pressure p
// (Pa). The correlation:
//
//	p_atm * tau = exp[ A (T^{-1/3} - 0.015 mu^{1/4}) - 18.42 ]  (atm s)
//	A = 1.16e-3 mu^{1/2} theta_v^{4/3}
//
// with mu the reduced molar mass in g/mol. RelaxationTime evaluates the same
// correlation from the pair constants NewMixture tabulates.
func MillikanWhiteTau(s, r *Species, T, p float64) float64 {
	if len(s.Vib) == 0 || T <= 0 || p <= 0 {
		return math.Inf(1)
	}
	mu := s.W * r.W / (s.W + r.W) * 1000 // g/mol
	theta := s.Vib[0].Theta
	A := 1.16e-3 * math.Sqrt(mu) * math.Pow(theta, 4.0/3.0)
	ex := A*(math.Pow(T, -1.0/3.0)-0.015*math.Pow(mu, 0.25)) - 18.42
	if ex > 300 {
		return math.Inf(1)
	}
	return math.Exp(ex) / (p / AtmPa)
}

// millikanWhiteAB returns the pair constants A and B = 0.015 mu^{1/4} of
// MillikanWhiteTau for molecule s and partner r, rounded as it rounds them.
func millikanWhiteAB(s, r *Species) (A, B float64) {
	mu := s.W * r.W / (s.W + r.W) * 1000 // g/mol
	theta := s.Vib[0].Theta
	return 1.16e-3 * math.Sqrt(mu) * math.Pow(theta, 4.0/3.0), 0.015 * math.Pow(mu, 0.25)
}

// ParkCollisionTau returns Park's collision-limited relaxation time,
// tau = 1 / (sigma_v cbar n), with the effective cross section
// sigma_v = 3e-21 (50000/T)^2 m^2, cbar the mean thermal speed of species s
// and n the mixture number density (1/m^3). This prevents the Millikan-White
// extrapolation from underestimating relaxation times above ~8000 K.
func ParkCollisionTau(s *Species, T, n float64) float64 {
	if T <= 0 || n <= 0 {
		return math.Inf(1)
	}
	sigma := 3e-21 * (50000 / T) * (50000 / T)
	cbar := math.Sqrt(8 * KB * T / (math.Pi * s.Mass()))
	return 1 / (sigma * cbar * n)
}

// RelaxationTime returns the mixture-averaged vibrational relaxation time of
// molecule m.Species[s]: mole-fraction average of Millikan-White pair times
// (MillikanWhiteTau, from the mixture's pair constants) plus the Park
// correction.
//
//	tau_s = (sum_r x_r) / (sum_r x_r / tau_sr)  +  tau_park
func RelaxationTime(m *Mixture, s int, T, p float64, x []float64) float64 {
	sp := m.Species[s]
	num, den := 0.0, 0.0
	if len(sp.Vib) > 0 && T > 0 && p > 0 {
		n := m.Len()
		mwA, mwB := m.mwA[s*n:(s+1)*n], m.mwB[s*n:(s+1)*n]
		tInv3 := math.Pow(T, -1.0/3.0)
		for i, r := range m.Species {
			if x[i] <= 0 || r.Name == "e-" {
				continue
			}
			ex := mwA[i]*(tInv3-mwB[i]) - 18.42
			if ex > 300 {
				continue // tau_sr = +Inf
			}
			tau := math.Exp(ex) / (p / AtmPa)
			if math.IsInf(tau, 1) {
				continue
			}
			num += x[i]
			den += x[i] / tau
		}
	}
	var tauMW float64
	if den > 0 {
		tauMW = num / den
	} else {
		tauMW = math.Inf(1)
	}
	n := p / (KB * T) // total number density
	return tauMW + ParkCollisionTau(sp, T, n)
}
