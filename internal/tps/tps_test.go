package tps

import (
	"math"
	"testing"

	"cataero/internal/thermo"
)

func TestHeatLoadTrapezoid(t *testing.T) {
	// Triangular pulse peaking at 100 over 10 s: load = 500 J/m^2.
	time := []float64{0, 5, 10}
	q := []float64{0, 100, 0}
	if got := HeatLoad(time, q); math.Abs(got-500) > 1e-9 {
		t.Errorf("load %g want 500", got)
	}
	if HeatLoad([]float64{0}, []float64{1}) != 0 {
		t.Error("degenerate input should give 0")
	}
}

func TestAblatorRecession(t *testing.T) {
	a := CarbonPhenolic()
	// 60 s at 2000 W/cm^2 (2e7 W/m^2): net flux after re-radiation ~1.87e7;
	// recession = net * t / (rho Qstar) ~ 31 mm.
	time := []float64{0, 60}
	q := []float64{2e7, 2e7}
	rec := a.Recession(time, q)
	qRerad := a.Eps * thermo.SigmaSB * math.Pow(a.TAbl, 4)
	want := (2e7 - qRerad) * 60 / (a.Rho * a.QStar)
	if math.Abs(rec-want) > 1e-9 {
		t.Errorf("recession %g want %g", rec, want)
	}
	// Below the re-radiation limit nothing ablates.
	if a.Recession([]float64{0, 60}, []float64{1e5, 1e5}) != 0 {
		t.Error("sub-reradiation flux should not ablate")
	}
}

func TestAblatorOrdering(t *testing.T) {
	// The denser, higher-Q* material recedes less under the same pulse.
	time := []float64{0, 30, 60}
	q := []float64{0, 3e7, 0}
	cp := CarbonPhenolic().Recession(time, q)
	sp := SilicaPhenolic().Recession(time, q)
	if cp >= sp {
		t.Errorf("carbon phenolic %g should beat silica phenolic %g", cp, sp)
	}
}

func TestSizeThickness(t *testing.T) {
	a := CarbonPhenolic()
	time := []float64{0, 30, 60}
	q := []float64{0, 3e7, 0}
	th := a.SizeThickness(time, q, 0, 0)
	rec := a.Recession(time, q)
	if th <= rec {
		t.Errorf("thickness %g must exceed recession %g", th, rec)
	}
	// Longer pulse needs more insulation.
	time2 := []float64{0, 120, 240}
	th2 := a.SizeThickness(time2, q, 0, 0)
	if th2 <= th {
		t.Errorf("longer pulse thickness %g should exceed %g", th2, th)
	}
}
