package atmosphere

import (
	"math"
	"testing"
)

func TestUS76SeaLevel(t *testing.T) {
	e := NewEarth()
	st := e.AtAltitude(0)
	if math.Abs(st.Temperature-288.15) > 0.01 {
		t.Errorf("T0=%g want 288.15", st.Temperature)
	}
	if math.Abs(st.Pressure-101325) > 1 {
		t.Errorf("p0=%g want 101325", st.Pressure)
	}
	if math.Abs(st.Density-1.225) > 0.001 {
		t.Errorf("rho0=%g want 1.225", st.Density)
	}
}

func TestUS76Tropopause(t *testing.T) {
	e := NewEarth()
	st := e.AtAltitude(11000)
	if math.Abs(st.Temperature-216.65) > 0.3 {
		t.Errorf("T(11km)=%g want 216.65", st.Temperature)
	}
	if math.Abs(st.Pressure-22632) > 150 {
		t.Errorf("p(11km)=%g want ~22632", st.Pressure)
	}
}

func TestUS76KnownAltitudes(t *testing.T) {
	e := NewEarth()
	cases := []struct {
		h, rho, tol float64
	}{
		{20000, 0.0889, 0.002},
		{40000, 0.004, 0.0005},
		{65500, 1.57e-4, 3e-5},  // Fig. 4 flight condition
		{71300, 7.3e-5, 2.2e-5}, // Fig. 6 STS-3 point
	}
	for _, c := range cases {
		st := e.AtAltitude(c.h)
		if math.Abs(st.Density-c.rho) > c.tol {
			t.Errorf("rho(%gkm)=%g want ~%g", c.h/1000, st.Density, c.rho)
		}
	}
}

func TestUS76MonotoneDensity(t *testing.T) {
	e := NewEarth()
	prev := e.AtAltitude(0).Density
	for h := 2000.0; h <= 120000; h += 2000 {
		cur := e.AtAltitude(h).Density
		if cur >= prev {
			t.Errorf("density not decreasing at h=%g", h)
		}
		prev = cur
	}
}

func TestTitanSurfaceAndAloft(t *testing.T) {
	ti := NewTitan()
	s0 := ti.AtAltitude(0)
	if math.Abs(s0.Density-5.44) > 0.01 {
		t.Errorf("Titan surface density %g want 5.44", s0.Density)
	}
	if math.Abs(s0.Pressure-1.5e5) > 0.2e5 {
		t.Errorf("Titan surface pressure %g want ~1.5e5", s0.Pressure)
	}
	// Entry-interface altitudes: density must fall smoothly across knots.
	prev := s0.Density
	for h := 10e3; h <= 1200e3; h += 10e3 {
		cur := ti.AtAltitude(h).Density
		if cur >= prev {
			t.Errorf("Titan density not decreasing at h=%g", h)
		}
		prev = cur
	}
}

func TestEntryTrajectoryBallistic(t *testing.T) {
	// Earth entry of a blunt capsule: the vehicle must decelerate and
	// descend, with peak dynamic pressure somewhere in mid-trajectory.
	e := NewEarth()
	veh := Vehicle{Mass: 800, RefArea: 4.5, CD: 1.5, NoseRadius: 1.0}
	pts, err := IntegrateEntry(e, veh, EntryConditions{
		Altitude: 120e3, Velocity: 7500, Gamma: -6 * math.Pi / 180,
	}, 300, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 10 {
		t.Fatalf("too few trajectory points: %d", len(pts))
	}
	last := pts[len(pts)-1]
	if last.Velocity > 2000 {
		t.Errorf("vehicle failed to decelerate: V_end=%g", last.Velocity)
	}
	if last.Altitude >= pts[0].Altitude {
		t.Errorf("vehicle failed to descend")
	}
	// Peak dynamic pressure occurs at neither endpoint.
	qMax, iMax := 0.0, 0
	for i, p := range pts {
		q := 0.5 * p.Density * p.Velocity * p.Velocity
		if q > qMax {
			qMax, iMax = q, i
		}
	}
	if iMax == 0 || iMax == len(pts)-1 {
		t.Errorf("peak dynamic pressure at trajectory endpoint (i=%d)", iMax)
	}
}

func TestEntryTrajectoryTitan(t *testing.T) {
	// 12 km/s Titan probe entry (the paper's Fig. 2 case): the probe must
	// decelerate high in the extended atmosphere.
	ti := NewTitan()
	veh := Vehicle{Mass: 2100, RefArea: 5.3, CD: 1.05, NoseRadius: 1.25}
	// Titan is small: a shallow path from high altitude has its periapsis
	// above the sensible atmosphere, so enter steeper from 600 km.
	pts, err := IntegrateEntry(ti, veh, EntryConditions{
		Altitude: 600e3, Velocity: 12000, Gamma: -40 * math.Pi / 180,
	}, 1000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	last := pts[len(pts)-1]
	if last.Velocity > 2000 {
		t.Errorf("Titan probe failed to decelerate: V=%g at h=%g", last.Velocity, last.Altitude)
	}
	if last.Altitude < 50e3 {
		t.Errorf("deceleration occurred too low: h=%g", last.Altitude)
	}
}

func TestModelMetadata(t *testing.T) {
	for _, m := range []Model{NewEarth(), NewTitan()} {
		if m.Name() == "" || m.SurfaceGravity() <= 0 || m.PlanetRadius() <= 0 {
			t.Errorf("bad metadata for %T", m)
		}
	}
}
