package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestCampaignSchedule(t *testing.T) {
	start := time.Unix(100, 0)
	due := dueTimes(start, 250*time.Millisecond, time.Second)
	if len(due) != 4 {
		t.Fatalf("%d requests due in 1 s at 250 ms, want 4", len(due))
	}
	for k, d := range due {
		if d.Sub(start) != time.Duration(k)*250*time.Millisecond {
			t.Errorf("request %d due at %v", k, d.Sub(start))
		}
	}
	if n := len(dueTimes(start, 280*time.Millisecond, 15*time.Second)); n != 54 {
		t.Errorf("%d requests due in 15 s at 280 ms, want 54", n)
	}
	if lateness(due[1], due[1].Add(-time.Millisecond)) != 0 {
		t.Error("an early send counts as late")
	}
	if got := lateness(due[1], due[1].Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "op", Start: at(0), End: at(100), Parent: -1},
		{Name: "a", Start: at(10), End: at(40), Parent: 0},
		{Name: "b", Start: at(30), End: at(50), Parent: 0},  // overlaps a
		{Name: "c", Start: at(90), End: at(120), Parent: 0}, // runs past op
		{Name: "d", Start: at(12), End: at(20), Parent: 1},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{at(50), at(22), at(20), at(30), at(8)} {
		if self[i] != want {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want)
		}
	}
	if got := selfMS(spans, self, "a"); len(got) != 1 || got[0] != 22 {
		t.Errorf("selfMS(a) = %v", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if tr.op() != -1 || tr.add("x", time.Now(), time.Now(), -1, -1) != -1 {
		t.Fatal("nil tracer")
	}
	tr = newTracer()
	op := tr.op()
	root := tr.add("op", tr.origin, tr.origin.Add(time.Second), -1, op)
	tr.add("child", tr.origin, tr.origin.Add(time.Millisecond), root, op)
	if s := tr.snapshot(); len(s) != 2 || s[1].Parent != root || s[1].Op != op {
		t.Fatalf("spans %+v", s)
	}
}

// Each workload's own kinds plus its probe kinds are every kind once.
func TestProbeKindsCoverEveryKind(t *testing.T) {
	for _, own := range [][]caseKind{idealKinds, realGasKinds, nil} {
		got := map[string]int{}
		for _, k := range own {
			got[k.name]++
		}
		for _, k := range probeKinds(own) {
			got[k.name]++
		}
		for _, k := range allKinds() {
			if got[k.name] != 1 {
				t.Errorf("kind %s is run %d times by own kinds plus probes", k.name, got[k.name])
			}
		}
	}
}

// Steps are per op and phase; fallbacks and refits add up over traced ops
// and served misses; the finest share averages the multilevel ops.
func TestOpLayersCounts(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	l2 := &idealKinds[3]
	recs := []opRecord{
		{kind: l2, watch: &opWatch{refits: 1, phases: []phaseMark{
			{name: "coarse", start: at(0), end: at(10), steps: 100, fallbacks: 2},
			{name: "fine", start: at(10), end: at(40), steps: 300, fallbacks: 1}}}},
		{kind: l2, watch: &opWatch{phases: []phaseMark{
			{name: "coarse", start: at(0), end: at(20), steps: 100},
			{name: "fine", start: at(20), end: at(40), steps: 301}}}},
		{kind: &realGasKinds[6]}, // a shock-tube op has no watch
	}
	rd := newReadings()
	opLayers(rd, recs, []runCounts{{steps: 530, fallbacks: 4}, {steps: 532, refits: 2}})
	for name, want := range map[string]float64{
		stepsMetric(l2.name, "coarse"):        100,
		stepsMetric(l2.name, "fine"):          300.5,
		stepsMetric(serveKind.name, "solve"):  531,
		stepsMetric(refitKind.name, "level0"): 0,
		"fvm.fallbacks":                       7,
		"fvm.refits":                          3,
		"fvm.finest_share":                    (0.75 + 0.5) / 2,
	} {
		if got := rd.val[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if rd.n["fvm.fallbacks"] != 4 || rd.n[stepsMetric(l2.name, "fine")] != 2 {
		t.Errorf("sample counts %v", rd.n)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The metric tables are what BENCHMARK.json at the repository root lists.
func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is invalid or repeated", d.name)
		}
		seen[d.name] = true
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
}
