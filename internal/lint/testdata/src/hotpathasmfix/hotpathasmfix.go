// Package hotpathasmfix exercises an interface root of the hotpath analyzer
// over assembly code: Step methods on types satisfying Stepper are hot-path
// roots, and the closure must reach the batched assembly helpers they call
// even when those helpers carry no annotation of their own — dropping a
// directive off an interior assembly function must not exempt it from the
// no-allocation rule. The `// want` comments are matched by
// TestHotPathAssemblyFixture.
package hotpathasmfix

// Stepper is the fixture's rooted interface.
type Stepper interface {
	Step() float64
}

// clean is a well-formed stepper: annotated, and its batched assembly
// helper writes only into preallocated planes.
type clean struct {
	a, b, c []float64
}

// Step is the well-formed implementation.
//
//cataero:hotpath
func (s *clean) Step() float64 {
	assembleBatch(s.a, s.b, s.c)
	return s.c[0]
}

// assembleBatch is an unannotated batched assembly helper; it enters the
// closure through clean.Step and must stay silent because it does not
// allocate.
func assembleBatch(a, b, c []float64) {
	for i := range c {
		c[i] = a[i] + b[i]
	}
}

// leaky implements Stepper without the annotation: the analyzer must demand
// the directive at the declaration and still traverse into its unannotated
// assembly helper, whose per-step allocations are flagged.
type leaky struct {
	n int
}

func (s *leaky) Step() float64 { // want "implements src/hotpathasmfix.Stepper and runs inside the per-step sweeps"
	return assembleFresh(s.n)
}

// assembleFresh rebuilds its block planes every call — the exact mistake the
// batched-assembly rules exist to catch.
func assembleFresh(n int) float64 {
	plane := make([]float64, 16*n) // want "make allocates"
	for i := range plane {
		plane[i] = 1
	}
	return plane[0]
}

// narrower has a Step method that does NOT satisfy Stepper (wrong
// signature): it is off the hot path and its make must stay silent.
type narrower struct{}

func (narrower) Step() (float64, error) {
	_ = make([]float64, 4)
	return 0, nil
}

var (
	_ Stepper = &clean{}
	_ Stepper = &leaky{}
)
