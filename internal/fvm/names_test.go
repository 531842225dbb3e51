package fvm

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// The enumerators list exactly their tables' keys, and CheckNames accepts
// the empty name and every enumerated name in its own slot, and rejects an
// unknown name in each slot with an error that lists the valid names.
func TestNameTables(t *testing.T) {
	if got, keys := FluxKernels(), slices.Sorted(maps.Keys(fluxTable)); !slices.Equal(got, keys) {
		t.Errorf("FluxKernels() = %v, fluxTable keys %v", got, keys)
	}
	if got, keys := Limiters(), slices.Sorted(maps.Keys(limiterTable)); !slices.Equal(got, keys) {
		t.Errorf("Limiters() = %v, limiterTable keys %v", got, keys)
	}
	slots := [4]string{"flux", "time stepping", "implicit sweep", "limiter"}
	for i, names := range [4][]string{FluxKernels(), Integrators(), ImplicitSweeps(), Limiters()} {
		check := func(name string) error {
			var n [4]string
			n[i] = name
			return CheckNames(n[0], n[1], n[2], n[3])
		}
		for _, name := range append([]string{""}, names...) {
			if err := check(name); err != nil {
				t.Errorf("%s %q rejected: %v", slots[i], name, err)
			}
		}
		if err := check("nope"); err == nil || !strings.Contains(err.Error(), fmt.Sprint(names)) {
			t.Errorf("%s \"nope\": error %v, want one listing %v", slots[i], err, names)
		}
	}
}
