package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between the closest ranks; NaN for an empty sample. xs is
// not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean is the geometric mean of positive values; NaN when empty or when
// any value is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is num/den, or 0 when den is 0 (no attempts, nothing failed).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tally counts ops attempted and ops failed, keeping the first few errors
// for the report. An op fails when the program returned an error, refused
// it, or produced an output that fails its check.
type tally struct {
	attempted, failed int
	first             []error
}

// keptErrors bounds the errors a tally keeps.
const keptErrors = 5

// add records one op; a nil check error means the op passed.
func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.first) < keptErrors {
			t.first = append(t.first, err)
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.first = append(t.first, o.first[:min(len(o.first), keptErrors-len(t.first))]...)
}

func (t tally) failRatio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// samples groups latency samples (ms) by a key such as a case kind.
type samples map[string][]float64

func (s samples) add(key string, ms float64) { s[key] = append(s[key], ms) }

// kindMedianGeomean is the geometric mean over keys of each key's median:
// a latency summary that weights every case kind equally, however many of
// its ops ran and however large they are.
func (s samples) kindMedianGeomean() float64 {
	var meds []float64
	for _, xs := range s {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

func (s samples) count() int {
	n := 0
	for _, xs := range s {
		n += len(xs)
	}
	return n
}
