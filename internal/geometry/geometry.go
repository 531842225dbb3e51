// Package geometry defines the axisymmetric and planar body shapes used by
// the flow solvers: sphere, sphere-cone, hyperboloid, biconic, and the
// Shuttle-Orbiter windward profile of the paper's Figs. 4-6, plus the
// equivalent-axisymmetric-body construction for angle of attack.
package geometry

import (
	"fmt"
	"math"
)

// Body is an axisymmetric (or planar symmetric) body described by arc length
// s measured along the surface from the stagnation point.
type Body interface {
	Name() string
	// Point returns the axial coordinate x and radius r at arc length s.
	Point(s float64) (x, r float64)
	// Angle returns the local body angle theta (rad) between the surface
	// tangent and the axis at arc length s.
	Angle(s float64) float64
	// NoseRadius returns the stagnation-point radius of curvature.
	NoseRadius() float64
	// MaxS returns the largest meaningful arc length.
	MaxS() float64
}

// --- Sphere ---

// Sphere is a hemisphere of radius R (arc length 0..pi/2*R).
type Sphere struct{ R float64 }

// NewSphere returns a hemisphere of radius r.
func NewSphere(r float64) *Sphere { return &Sphere{R: r} }

// Name implements Body.
func (b *Sphere) Name() string { return fmt.Sprintf("sphere R=%.3g m", b.R) }

// Point implements Body.
func (b *Sphere) Point(s float64) (x, r float64) {
	phi := s / b.R
	return b.R * (1 - math.Cos(phi)), b.R * math.Sin(phi)
}

// Angle implements Body.
func (b *Sphere) Angle(s float64) float64 { return math.Pi/2 - s/b.R }

// NoseRadius implements Body.
func (b *Sphere) NoseRadius() float64 { return b.R }

// MaxS implements Body.
func (b *Sphere) MaxS() float64 { return b.R * math.Pi / 2 }

// --- Sphere-cone ---

// SphereCone is a spherically blunted cone: nose radius Rn, half angle
// ThetaC (rad), base radius Rb.
type SphereCone struct {
	Rn     float64
	ThetaC float64
	Rb     float64
	sTan   float64 // arc length of the sphere-cone tangency point
}

// NewSphereCone builds a blunted cone.
func NewSphereCone(rn, thetaC, rb float64) *SphereCone {
	return &SphereCone{Rn: rn, ThetaC: thetaC, Rb: rb, sTan: rn * (math.Pi/2 - thetaC)}
}

// Name implements Body.
func (b *SphereCone) Name() string {
	return fmt.Sprintf("sphere-cone Rn=%.3g m, theta=%.1f deg", b.Rn, b.ThetaC*180/math.Pi)
}

// Point implements Body.
func (b *SphereCone) Point(s float64) (x, r float64) {
	if s <= b.sTan {
		phi := s / b.Rn
		return b.Rn * (1 - math.Cos(phi)), b.Rn * math.Sin(phi)
	}
	// Tangency point.
	xt := b.Rn * (1 - math.Sin(b.ThetaC))
	rt := b.Rn * math.Cos(b.ThetaC)
	d := s - b.sTan
	return xt + d*math.Cos(b.ThetaC), rt + d*math.Sin(b.ThetaC)
}

// Angle implements Body.
func (b *SphereCone) Angle(s float64) float64 {
	if s <= b.sTan {
		return math.Pi/2 - s/b.Rn
	}
	return b.ThetaC
}

// NoseRadius implements Body.
func (b *SphereCone) NoseRadius() float64 { return b.Rn }

// MaxS implements Body.
func (b *SphereCone) MaxS() float64 {
	rt := b.Rn * math.Cos(b.ThetaC)
	if b.Rb <= rt {
		return b.sTan
	}
	return b.sTan + (b.Rb-rt)/math.Sin(b.ThetaC)
}

// --- Hyperboloid ---

// Hyperboloid is an axisymmetric hyperboloid with nose radius Rn and
// asymptotic half angle ThetaA, the classic analytic blunt body used by
// era VSL codes. Parametrized numerically by arc length.
type Hyperboloid struct {
	Rn     float64
	ThetaA float64
	sGrid  []float64
	xGrid  []float64
	rGrid  []float64
}

// NewHyperboloid tabulates the hyperboloid x(r) = (sqrt(a^2 (1 + r^2/b^2)) - a)
// with a = Rn/tan^2(theta), b = a tan(theta), out to sMax arc length.
func NewHyperboloid(rn, thetaA, sMax float64) *Hyperboloid {
	h := &Hyperboloid{Rn: rn, ThetaA: thetaA}
	t2 := math.Tan(thetaA) * math.Tan(thetaA)
	a := rn / t2
	b := a * math.Tan(thetaA)
	// March in r, accumulating arc length.
	n := 4000
	h.sGrid = make([]float64, 0, n)
	h.xGrid = make([]float64, 0, n)
	h.rGrid = make([]float64, 0, n)
	s, x, r := 0.0, 0.0, 0.0
	h.sGrid = append(h.sGrid, 0)
	h.xGrid = append(h.xGrid, 0)
	h.rGrid = append(h.rGrid, 0)
	dr := rn / 400
	for s < sMax {
		rNew := r + dr
		xNew := a*math.Sqrt(1+rNew*rNew/(b*b)) - a
		ds := math.Hypot(xNew-x, rNew-r)
		s += ds
		x, r = xNew, rNew
		h.sGrid = append(h.sGrid, s)
		h.xGrid = append(h.xGrid, x)
		h.rGrid = append(h.rGrid, r)
	}
	return h
}

// Name implements Body.
func (b *Hyperboloid) Name() string {
	return fmt.Sprintf("hyperboloid Rn=%.3g m, theta=%.1f deg", b.Rn, b.ThetaA*180/math.Pi)
}

func (b *Hyperboloid) locate(s float64) (int, float64) {
	n := len(b.sGrid)
	if s <= 0 {
		return 0, 0
	}
	if s >= b.sGrid[n-1] {
		return n - 2, 1
	}
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if b.sGrid[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, (s - b.sGrid[lo]) / (b.sGrid[lo+1] - b.sGrid[lo])
}

// Point implements Body.
func (b *Hyperboloid) Point(s float64) (x, r float64) {
	i, f := b.locate(s)
	return (1-f)*b.xGrid[i] + f*b.xGrid[i+1], (1-f)*b.rGrid[i] + f*b.rGrid[i+1]
}

// Angle implements Body.
func (b *Hyperboloid) Angle(s float64) float64 {
	i, _ := b.locate(s)
	j := i + 1
	dx := b.xGrid[j] - b.xGrid[i]
	dr := b.rGrid[j] - b.rGrid[i]
	// Tangent angle measured from the axis: pi/2 at the stagnation point,
	// approaching the asymptotic half angle far downstream.
	return math.Atan2(dr, dx)
}

// NoseRadius implements Body.
func (b *Hyperboloid) NoseRadius() float64 { return b.Rn }

// MaxS implements Body.
func (b *Hyperboloid) MaxS() float64 { return b.sGrid[len(b.sGrid)-1] }
