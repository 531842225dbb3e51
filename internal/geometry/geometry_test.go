package geometry

import (
	"math"
	"testing"
)

// curvature is the longitudinal surface curvature dθ/ds of b at arc length
// s, by a central difference of its body angle over a 2000th of the body.
func curvature(b Body, s float64) float64 {
	ds := b.MaxS() / 2000
	return math.Abs(b.Angle(s+ds)-b.Angle(math.Max(s-ds, 0))) / (2 * ds)
}

func TestSphereBasics(t *testing.T) {
	b := NewSphere(0.5)
	x, r := b.Point(0)
	if x != 0 || r != 0 {
		t.Errorf("stagnation point (%g,%g)", x, r)
	}
	// Quarter arc: 45 degrees around.
	s := 0.5 * math.Pi / 4
	x, r = b.Point(s)
	if math.Abs(x-0.5*(1-math.Cos(math.Pi/4))) > 1e-12 {
		t.Errorf("x=%g", x)
	}
	if math.Abs(r-0.5*math.Sin(math.Pi/4)) > 1e-12 {
		t.Errorf("r=%g", r)
	}
	if math.Abs(b.Angle(0)-math.Pi/2) > 1e-12 {
		t.Errorf("angle at nose %g want pi/2", b.Angle(0))
	}
	if k := curvature(b, 0.1); math.Abs(k-2) > 1e-6 {
		t.Errorf("curvature %g want 2", k)
	}
	if b.NoseRadius() != 0.5 {
		t.Error("nose radius")
	}
}

func TestSphereConeContinuity(t *testing.T) {
	b := NewSphereCone(0.3, 30*math.Pi/180, 1.2)
	sT := 0.3 * (math.Pi/2 - 30*math.Pi/180)
	// Position and angle continuous across the tangency point.
	x0, r0 := b.Point(sT - 1e-9)
	x1, r1 := b.Point(sT + 1e-9)
	if math.Abs(x1-x0) > 1e-6 || math.Abs(r1-r0) > 1e-6 {
		t.Errorf("tangency discontinuity: (%g,%g) vs (%g,%g)", x0, r0, x1, r1)
	}
	if math.Abs(b.Angle(sT-1e-9)-b.Angle(sT+1e-9)) > 1e-6 {
		t.Error("angle discontinuity at tangency")
	}
	// Radius grows monotonically out to the base.
	sMax := b.MaxS()
	_, rEnd := b.Point(sMax)
	if math.Abs(rEnd-1.2) > 1e-9 {
		t.Errorf("base radius %g want 1.2", rEnd)
	}
}

func TestSphereConeConeRegion(t *testing.T) {
	b := NewSphereCone(0.1, 45*math.Pi/180, 1.0)
	s := b.MaxS() * 0.9
	if b.Angle(s) != 45*math.Pi/180 {
		t.Errorf("cone angle %g", b.Angle(s))
	}
	if k := curvature(b, s); k != 0 {
		t.Errorf("cone curvature %g want 0", k)
	}
}

func TestHyperboloidLimits(t *testing.T) {
	b := NewHyperboloid(0.3, 40*math.Pi/180, 3.0)
	// Nose angle ~ pi/2.
	if a := b.Angle(0.001); math.Abs(a-math.Pi/2) > 0.1 {
		t.Errorf("nose angle %g want ~pi/2", a)
	}
	// Far-field angle approaches the asymptote from above.
	aFar := b.Angle(b.MaxS() * 0.98)
	if aFar < 40*math.Pi/180-0.02 || aFar > 75*math.Pi/180 {
		t.Errorf("asymptotic angle %g", aFar)
	}
	// Curvature near the nose ~ 1/Rn.
	if k := curvature(b, 0.01); math.Abs(k-1/0.3) > 0.7 {
		t.Errorf("nose curvature %g want ~%g", k, 1/0.3)
	}
	// Monotone radius.
	_, r1 := b.Point(1.0)
	_, r2 := b.Point(2.0)
	if r2 <= r1 {
		t.Error("radius not growing")
	}
}

func TestOrbiterProfile(t *testing.T) {
	o := NewOrbiter()
	// Windward profile starts at zero depth and is monotone nondecreasing.
	if z := o.WindwardZ(0); z != 0 {
		t.Errorf("z(0)=%g", z)
	}
	prev := -1.0
	for x := 0.0; x <= o.Length; x += 0.5 {
		z := o.WindwardZ(x)
		if z < prev-1e-9 {
			t.Errorf("windward profile decreasing at x=%g", x)
		}
		prev = z
	}
	// Planform: zero at the nose, ~2.4 m mid-body, near full half-span aft.
	if w := o.PlanformHalfWidth(0); w != 0 {
		t.Errorf("w(0)=%g", w)
	}
	if w := o.PlanformHalfWidth(0.4 * o.Length); math.Abs(w-2.4) > 0.3 {
		t.Errorf("mid-body half width %g want ~2.4", w)
	}
	if w := o.PlanformHalfWidth(o.Length); w < 10 || w > 13 {
		t.Errorf("aft half width %g want ~11.9", w)
	}
}

func TestOrbiterSections(t *testing.T) {
	o := NewOrbiter()
	secs := o.Sections(30)
	if len(secs) != 30 {
		t.Fatalf("sections: %d", len(secs))
	}
	if secs[0].X != 0 || math.Abs(secs[29].X-o.Length) > 1e-9 {
		t.Error("section stations wrong")
	}
}

func TestOrbiterEquivalentBody(t *testing.T) {
	o := NewOrbiter()
	eq := o.EquivalentAxisymmetric(40 * math.Pi / 180)
	// The effective cone angle is close to alpha for a flat windward side.
	if math.Abs(eq.ThetaC-40*math.Pi/180) > 0.05 {
		t.Errorf("effective angle %g want ~40 deg", eq.ThetaC*180/math.Pi)
	}
	if eq.Rn <= 0 {
		t.Error("no nose radius")
	}
}

func TestBodyNames(t *testing.T) {
	bodies := []Body{
		NewSphere(1),
		NewSphereCone(0.5, 0.7, 2),
		NewHyperboloid(0.4, 0.7, 2),
	}
	for _, b := range bodies {
		if b.Name() == "" || b.MaxS() <= 0 {
			t.Errorf("bad metadata for %T", b)
		}
	}
	if NewOrbiter().String() == "" {
		t.Error("orbiter string")
	}
}
