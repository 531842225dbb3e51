// Package tps closes the design loop the paper motivates: turning computed
// aerothermal environments into thermal-protection-system quantities —
// integrated heat loads along an entry pulse and first-order ablator sizing
// (the "TPS for the probe was sized based on computer predictions"
// application of the Galileo/Titan probe studies).
package tps

import (
	"math"

	"cataero/internal/numerics"
	"cataero/internal/thermo"
)

// HeatLoad integrates a heating pulse q(t) (W/m^2 against seconds) into the
// total heat load (J/m^2) by the trapezoidal rule.
func HeatLoad(time, q []float64) float64 {
	if len(time) != len(q) || len(time) < 2 {
		return 0
	}
	return numerics.TrapzSlice(time, q)
}

// Ablator is a first-order charring-ablator model: a material consumes
// QStar joules per kilogram removed, at density Rho, and re-radiates with
// emissivity Eps while ablating at the ablation temperature TAbl.
type Ablator struct {
	Name  string
	Rho   float64 // kg/m^3
	QStar float64 // effective heat of ablation, J/kg
	Eps   float64
	TAbl  float64 // quasi-steady surface temperature while ablating, K
}

// CarbonPhenolic returns a representative dense ablator (Galileo-class).
func CarbonPhenolic() Ablator {
	return Ablator{Name: "carbon phenolic", Rho: 1450, QStar: 2.5e7, Eps: 0.9, TAbl: 3600}
}

// SilicaPhenolic returns a representative mid-density ablator.
func SilicaPhenolic() Ablator {
	return Ablator{Name: "silica phenolic", Rho: 1050, QStar: 1.2e7, Eps: 0.85, TAbl: 2800}
}

// Recession returns the surface recession (m) for a heating pulse: the
// re-radiated fraction is removed at the ablation temperature, and the
// remainder consumes material at QStar.
func (a Ablator) Recession(time, q []float64) float64 {
	if len(time) != len(q) || len(time) < 2 {
		return 0
	}
	qRad := a.Eps * thermo.SigmaSB * math.Pow(a.TAbl, 4)
	rec := 0.0
	for i := 1; i < len(time); i++ {
		qm := 0.5 * (q[i] + q[i-1])
		net := qm - qRad
		if net <= 0 {
			continue
		}
		rec += net / (a.Rho * a.QStar) * (time[i] - time[i-1])
	}
	return rec
}

// SizeThickness returns a TPS thickness estimate: recession plus an
// insulation allowance proportional to the square root of the heated time
// (a one-dimensional conduction-depth scale with diffusivity alpha, m^2/s),
// times a safety factor.
func (a Ablator) SizeThickness(time, q []float64, alpha, safety float64) float64 {
	if alpha <= 0 {
		alpha = 4e-7 // char-layer scale
	}
	if safety <= 0 {
		safety = 1.5
	}
	rec := a.Recession(time, q)
	heated := 0.0
	if n := len(time); n >= 2 {
		heated = time[n-1] - time[0]
	}
	insulation := 2 * math.Sqrt(alpha*heated)
	return safety * (rec + insulation)
}
