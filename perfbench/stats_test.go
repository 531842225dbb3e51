package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestGeomeanAndKindMedians(t *testing.T) {
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean = %g, want 10", got)
	}
	if !math.IsNaN(geomean([]float64{1, 0})) || !math.IsNaN(geomean(nil)) {
		t.Error("geomean of a non-positive or empty sample should be NaN")
	}
	s := samples{}
	for _, v := range []float64{10, 12, 11} {
		s.add("small", v)
	}
	for _, v := range []float64{1000, 990, 5000, 1010} {
		s.add("large", v)
	}
	// Medians 11 and 1005: the one slow large op does not move the summary.
	if got, want := s.kindMedianGeomean(), math.Sqrt(11*1005); !near(got, want) {
		t.Errorf("kindMedianGeomean = %g, want %g", got, want)
	}
	if s.count() != 7 {
		t.Errorf("count = %d, want 7", s.count())
	}
}

func TestRatios(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
	if got := perSecond(30, 2*time.Second); got != 15 {
		t.Errorf("perSecond = %g", got)
	}
	if perSecond(3, 0) != 0 {
		t.Error("perSecond of no time should be 0")
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var a tally
	a.add(nil)
	a.add(errors.New("refused"))
	a.add(nil)
	a.add(nil)
	if a.attempted != 4 || a.failed != 1 || a.failRatio() != 0.25 {
		t.Fatalf("tally = %+v, fail ratio %g", a, a.failRatio())
	}
	var b tally
	if b.failRatio() != 0 {
		t.Error("an empty tally has fail ratio 0")
	}
	b.add(errors.New("x"))
	a.merge(b)
	if a.attempted != 5 || a.failed != 2 {
		t.Errorf("merged tally = %+v", a)
	}
}
