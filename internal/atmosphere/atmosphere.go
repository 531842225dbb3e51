// Package atmosphere provides the planetary atmosphere models and the
// ballistic entry trajectory integrator used to drive the aerothermal
// solvers: the US Standard Atmosphere 1976 for Earth, a piecewise
// exponential model for Titan (the paper's Fig. 2 probe entry), and a
// 3-DOF planar entry integrator.
package atmosphere

import (
	"fmt"
	"math"

	"cataero/internal/numerics"
	"cataero/internal/thermo"
)

// State is the local atmospheric state.
type State struct {
	Altitude    float64 // m
	Temperature float64 // K
	Pressure    float64 // Pa
	Density     float64 // kg/m^3
}

// Model evaluates atmospheric state versus altitude.
type Model interface {
	Name() string
	AtAltitude(h float64) State
	// SurfaceGravity returns g at the reference surface, m/s^2.
	SurfaceGravity() float64
	// PlanetRadius returns the planet radius, m.
	PlanetRadius() float64
}

// --- Earth: US Standard Atmosphere 1976 ---

// Earth implements the US Standard Atmosphere 1976 up to 86 km geopotential
// altitude, with an exponential extension above (adequate for entry heating
// work up to ~120 km).
type Earth struct{}

// NewEarth returns the US76 model.
func NewEarth() *Earth { return &Earth{} }

// Name implements Model.
func (e *Earth) Name() string { return "US Standard Atmosphere 1976" }

// SurfaceGravity implements Model.
func (e *Earth) SurfaceGravity() float64 { return 9.80665 }

// PlanetRadius implements Model.
func (e *Earth) PlanetRadius() float64 { return 6356.766e3 }

// us76 layer base geopotential altitudes (m), lapse rates (K/m), base
// temperatures (K) and base pressures (Pa).
var us76H = []float64{0, 11000, 20000, 32000, 47000, 51000, 71000, 84852}
var us76L = []float64{-0.0065, 0, 0.001, 0.0028, 0, -0.0028, -0.002}
var us76T = []float64{288.15, 216.65, 216.65, 228.65, 270.65, 270.65, 214.65, 186.946}
var us76P = []float64{thermo.AtmPa, 22632.1, 5474.89, 868.019, 110.906, 66.9389, 3.95642, 0.3734}

const airR = 287.053 // J/(kg K)

// AtAltitude implements Model.
func (e *Earth) AtAltitude(h float64) State {
	// Geometric to geopotential altitude.
	r0 := e.PlanetRadius()
	hg := r0 * h / (r0 + h)
	if hg < 0 {
		hg = 0
	}
	if hg >= us76H[len(us76H)-1] {
		// Exponential extension above 86 km with scale height ~7.2 km at the
		// local kinetic temperature (coarse but adequate for Re/M maps).
		T := 186.946
		p := us76P[len(us76P)-1] * math.Exp(-(hg-us76H[len(us76H)-1])/7200)
		return State{Altitude: h, Temperature: T, Pressure: p, Density: p / (airR * T)}
	}
	g0 := e.SurfaceGravity()
	for i := 0; i < len(us76L); i++ {
		if hg <= us76H[i+1] {
			dh := hg - us76H[i]
			L := us76L[i]
			Tb := us76T[i]
			Pb := us76P[i]
			var T, p float64
			if L == 0 {
				T = Tb
				p = Pb * math.Exp(-g0*dh/(airR*Tb))
			} else {
				T = Tb + L*dh
				p = Pb * math.Pow(T/Tb, -g0/(airR*L))
			}
			return State{Altitude: h, Temperature: T, Pressure: p, Density: p / (airR * T)}
		}
	}
	// Unreachable.
	return State{Altitude: h}
}

// --- Titan ---

// Titan is a piecewise-exponential density model of Titan's N2/CH4
// atmosphere representative of the pre-Cassini engineering models used for
// probe studies: 1.5 bar and 94 K at the surface, ~130-175 K aloft.
type Titan struct{}

// NewTitan returns the Titan model.
func NewTitan() *Titan { return &Titan{} }

// Name implements Model.
func (t *Titan) Name() string { return "Titan engineering atmosphere" }

// SurfaceGravity implements Model.
func (t *Titan) SurfaceGravity() float64 { return 1.352 }

// PlanetRadius implements Model.
func (t *Titan) PlanetRadius() float64 { return 2575e3 }

// Knot altitudes (m), densities (kg/m^3) and temperatures (K).
var titanH = []float64{0, 50e3, 100e3, 200e3, 300e3, 400e3, 600e3, 1000e3}
var titanRho = []float64{5.44, 0.57, 0.0457, 3.2e-4, 6.3e-6, 3.0e-7, 2.2e-9, 3.0e-12}
var titanT = []float64{94, 74, 137, 162, 170, 174, 175, 178}

const titanR = 296.9 * 0.975 // N2-dominated gas constant (5% CH4 by mole)

// AtAltitude implements Model.
func (t *Titan) AtAltitude(h float64) State {
	if h < 0 {
		h = 0
	}
	n := len(titanH)
	var rho, T float64
	if h >= titanH[n-1] {
		// Exponential tail.
		Hs := 90e3
		rho = titanRho[n-1] * math.Exp(-(h-titanH[n-1])/Hs)
		T = titanT[n-1]
	} else {
		i := 0
		for h > titanH[i+1] {
			i++
		}
		// Log-linear density interpolation (piecewise exponential).
		f := (h - titanH[i]) / (titanH[i+1] - titanH[i])
		rho = math.Exp((1-f)*math.Log(titanRho[i]) + f*math.Log(titanRho[i+1]))
		T = (1-f)*titanT[i] + f*titanT[i+1]
	}
	return State{Altitude: h, Temperature: T, Density: rho, Pressure: rho * titanR * T}
}

// --- Entry trajectory ---

// Vehicle holds the entry-vehicle parameters for the 3-DOF integrator.
type Vehicle struct {
	Mass       float64 // kg
	RefArea    float64 // m^2
	CD         float64 // drag coefficient
	CL         float64 // lift coefficient (0 for ballistic probes)
	NoseRadius float64 // m (carried through to heating correlations)
}

// TrajectoryPoint is one integrated state along the entry.
type TrajectoryPoint struct {
	Time     float64 // s
	Altitude float64 // m
	Velocity float64 // m/s
	Gamma    float64 // flight path angle, rad (negative = descending)
	Density  float64 // kg/m^3
	Pressure float64
	Temp     float64
}

// EntryConditions sets the initial state of an entry.
type EntryConditions struct {
	Altitude float64 // m
	Velocity float64 // m/s
	Gamma    float64 // rad, negative downward
}

// IntegrateEntry integrates the planar 3-DOF point-mass entry equations
//
//	dV/dt  = -D/m - g sin(gamma)
//	dgamma/dt = (L/m)/V + (V/(r) - g/V) cos(gamma)
//	dh/dt  = V sin(gamma)
//
// until the velocity drops below vStop or the altitude leaves [0, hTop].
// Points are reported every dtSample seconds.
func IntegrateEntry(atm Model, veh Vehicle, ic EntryConditions, vStop, dtSample float64) ([]TrajectoryPoint, error) {
	if dtSample <= 0 {
		dtSample = 1
	}
	g0 := atm.SurfaceGravity()
	r0 := atm.PlanetRadius()
	state := []float64{ic.Velocity, ic.Gamma, ic.Altitude}
	deriv := func(t float64, y, dy []float64) {
		V, gamma, h := y[0], y[1], y[2]
		if V < 1 {
			V = 1
		}
		st := atm.AtAltitude(h)
		g := g0 * (r0 / (r0 + h)) * (r0 / (r0 + h))
		q := 0.5 * st.Density * V * V
		D := q * veh.CD * veh.RefArea
		L := q * veh.CL * veh.RefArea
		dy[0] = -D/veh.Mass - g*math.Sin(gamma)
		dy[1] = L/(veh.Mass*V) + (V/(r0+h)-g/V)*math.Cos(gamma)
		dy[2] = V * math.Sin(gamma)
	}
	var pts []TrajectoryPoint
	record := func(tm float64, y []float64) {
		st := atm.AtAltitude(y[2])
		pts = append(pts, TrajectoryPoint{
			Time: tm, Altitude: y[2], Velocity: y[0], Gamma: y[1],
			Density: st.Density, Pressure: st.Pressure, Temp: st.Temperature,
		})
	}
	record(0, state)
	tEnd := 3600.0
	for tm := 0.0; tm < tEnd; tm += dtSample {
		_, err := numerics.RKF45(deriv, tm, tm+dtSample, state, numerics.RKF45Options{
			RelTol: 1e-8, AbsTol: 1e-8,
		})
		if err != nil {
			return pts, fmt.Errorf("atmosphere: trajectory integration: %w", err)
		}
		record(tm+dtSample, state)
		if state[0] < vStop || state[2] <= 0 || state[2] > ic.Altitude*2 {
			return pts, nil
		}
	}
	return pts, nil
}
