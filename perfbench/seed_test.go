package main

import (
	"math"
	"slices"
	"testing"
)

func TestSweepPlanFollowsSeed(t *testing.T) {
	for _, spec := range sweeps {
		a := planSweep(spec, 7, 4)
		if !slices.Equal(a, planSweep(spec, 7, 4)) {
			t.Fatalf("%s: one seed gave two op sequences", spec.name)
		}
		if slices.Equal(a, planSweep(spec, 8, 4)) {
			t.Fatalf("%s: seeds 7 and 8 gave the same op sequence", spec.name)
		}
		n := len(spec.pass)
		if len(a) != 4*n {
			t.Fatalf("%s: %d ops for 4 passes of %d ops", spec.name, len(a), n)
		}
		want := slices.Sorted(slices.Values(spec.pass))
		for pass := 0; pass < 4; pass++ {
			var got []int
			for _, po := range a[pass*n : (pass+1)*n] {
				got = append(got, po.kind)
				k := spec.kinds[po.kind]
				if po.pass != pass || math.Abs(po.twall-k.twall) > wallJitter*k.twall {
					t.Fatalf("%s: op %+v outside pass %d or the jitter band", spec.name, po, pass)
				}
			}
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Fatalf("%s: pass %d runs kinds %v, want %v", spec.name, pass, got, want)
			}
		}
		seen := map[int]bool{}
		for _, ki := range spec.pass {
			seen[ki] = true
		}
		if len(seen) != len(spec.kinds) {
			t.Fatalf("%s: a pass runs %d of %d kinds", spec.name, len(seen), len(spec.kinds))
		}
	}
}

func TestServeTrafficFollowsSeed(t *testing.T) {
	draws := func(seed uint64) []hitDraw {
		h := newHitStream(seed, prefillFull)
		var out []hitDraw
		for i := 0; i < 500; i++ {
			out = append(out, h.next())
		}
		return out
	}
	a := draws(3)
	if !slices.Equal(a, draws(3)) {
		t.Fatal("one seed gave two request sequences")
	}
	if slices.Equal(a, draws(4)) {
		t.Fatal("seeds 3 and 4 gave the same request sequence")
	}
	count := map[int]int{}
	inm := 0
	for _, d := range a {
		if d.idx < 0 || d.idx >= prefillFull {
			t.Fatalf("draw %+v outside the stored cases", d)
		}
		count[d.idx]++
		if d.inm {
			inm++
		}
	}
	top := 0
	for _, c := range count {
		top = max(top, c)
	}
	if top < 500/prefillFull*4 {
		t.Errorf("most popular case drawn %d of 500 times: popularity is not skewed", top)
	}
	if inm < 25 || inm > 85 {
		t.Errorf("%d of 500 draws revalidate, want about 10%%", inm)
	}

	f := freshWalls(3, 200, prefillFull)
	if !slices.Equal(f, freshWalls(3, 200, prefillFull)) {
		t.Fatal("one seed gave two fresh-case sequences")
	}
	if slices.Equal(f, freshWalls(4, 200, prefillFull)) {
		t.Fatal("seeds 3 and 4 gave the same fresh cases")
	}
	seen := map[float64]bool{}
	for i := 0; i < prefillFull; i++ {
		seen[prefillWall(i)] = true
	}
	for _, tw := range f {
		if seen[tw] {
			t.Fatalf("fresh wall temperature %g repeats a stored or earlier case", tw)
		}
		seen[tw] = true
	}
}

func TestPassCount(t *testing.T) {
	for _, c := range []struct {
		seconds, pass float64
		want          int
	}{{15, 2, 8}, {15, 1.4, 11}, {0.5, 2, 1}, {3, 2, 2}} {
		if got := passCount(c.seconds, c.pass); got != c.want {
			t.Errorf("passCount(%g, %g) = %d, want %d", c.seconds, c.pass, got, c.want)
		}
	}
}
