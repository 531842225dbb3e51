package geometry

import (
	"fmt"
	"math"
)

// Orbiter approximates the Space Shuttle Orbiter outer mold line as used by
// the era's PNS/E+BL simulations (the paper's Figs. 4-6): a 32.77 m vehicle
// with a blunt nose (Rn ~ 0.60 m), a windward centerline that is gently
// curved over the first quarter and nearly flat aft, and an elliptical
// planform. Stations are normalized by body length.
type Orbiter struct {
	Length float64 // m
	Rn     float64 // nose radius, m
}

// NewOrbiter returns the standard 32.77 m Orbiter approximation.
func NewOrbiter() *Orbiter { return &Orbiter{Length: 32.77, Rn: 0.60} }

// WindwardZ returns the windward-centerline height z (m, positive down from
// the nose reference) at axial station x (m). The shape is a blunt nose
// followed by a shallow ramp that flattens aft, matching the gross shape of
// the published windward profile.
func (o *Orbiter) WindwardZ(x float64) float64 {
	if x < 0 {
		x = 0
	}
	xi := x / o.Length
	switch {
	case x < o.Rn:
		// Spherical nose cap: circle of radius Rn centered at (Rn, 0), so
		// z(0)=0 at the tip and z(Rn)=Rn where the cap meets the forebody.
		dz := o.Rn*o.Rn - (x-o.Rn)*(x-o.Rn)
		if dz < 0 {
			dz = 0
		}
		return math.Sqrt(dz)
	case xi < 0.25:
		// Shallow curved forebody: continues from the cap with a gentle slope.
		z0 := o.windwardCapEnd()
		return z0 + 0.12*(x-o.Rn)*math.Exp(-3*xi)
	default:
		// Nearly flat aft body.
		z25 := o.windwardAt(0.25 * o.Length)
		return z25 + 0.015*(x-0.25*o.Length)
	}
}

func (o *Orbiter) windwardCapEnd() float64 { return o.Rn }

func (o *Orbiter) windwardAt(x float64) float64 {
	// Evaluate the 0.25L value through the xi<0.25 branch for continuity.
	z0 := o.windwardCapEnd()
	xi := x / o.Length
	return z0 + 0.12*(x-o.Rn)*math.Exp(-3*xi)
}

// PlanformHalfWidth returns the planform half-width y (m) at station x (m):
// an elliptic forebody blending into strake/wing growth aft.
func (o *Orbiter) PlanformHalfWidth(x float64) float64 {
	if x <= 0 {
		return 0
	}
	xi := x / o.Length
	if xi > 1 {
		xi = 1
	}
	// Fuselage half width grows elliptically to ~2.4 m by mid-body.
	fus := 2.4 * math.Sqrt(1-(1-math.Min(xi/0.35, 1))*(1-math.Min(xi/0.35, 1)))
	// Wing adds beyond 55% length up to ~11.9 m total half span.
	wing := 0.0
	if xi > 0.55 {
		t := (xi - 0.55) / 0.45
		wing = (11.9 - 2.4) * t * t
	}
	return fus + wing
}

// Sections returns ns cross-sections, each with axial station x and the
// (half-width, windward depth) pair, for rendering the Fig. 5 geometry.
func (o *Orbiter) Sections(ns int) []OrbiterSection {
	out := make([]OrbiterSection, ns)
	for i := 0; i < ns; i++ {
		x := o.Length * float64(i) / float64(ns-1)
		out[i] = OrbiterSection{
			X:         x,
			HalfWidth: o.PlanformHalfWidth(x),
			WindwardZ: o.WindwardZ(x),
		}
	}
	return out
}

// OrbiterSection is one station of the discretized geometry.
type OrbiterSection struct {
	X         float64
	HalfWidth float64
	WindwardZ float64
}

// EquivalentAxisymmetric builds the equivalent axisymmetric body for
// windward-centerline analysis at angle of attack alpha (rad): the classic
// axisymmetric-analog reduction (paper Ref. 18). The equivalent body is a
// sphere-cone with the Orbiter nose radius and an effective half angle equal
// to the local windward surface inclination plus alpha.
func (o *Orbiter) EquivalentAxisymmetric(alpha float64) *SphereCone {
	// Windward aft slope ~ 0.015 rad built into WindwardZ.
	thetaEff := alpha + 0.015
	if thetaEff > 80*math.Pi/180 {
		thetaEff = 80 * math.Pi / 180
	}
	return NewSphereCone(o.Rn*1.4, thetaEff, o.Length*math.Sin(thetaEff)+2.4)
}

func (o *Orbiter) String() string {
	return fmt.Sprintf("Shuttle Orbiter (L=%.2f m, Rn=%.2f m)", o.Length, o.Rn)
}
