package main

import (
	"context"
	"testing"

	"cataero/internal/gas"
)

// A traced op of each mode yields checked outputs, the Run lifecycle spans
// and exact step counts.
func TestTracedOpsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("solves")
	}
	r, err := newRunner()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var recs []opRecord
	for _, k := range []*caseKind{&idealKinds[0], &realGasKinds[5], &realGasKinds[6]} {
		rec := r.run(context.Background(), k, k.twall, tr)
		if rec.err != nil {
			t.Fatalf("%s: %v", k.name, rec.err)
		}
		recs = append(recs, rec)
	}
	names := map[string]int{}
	for _, s := range tr.snapshot() {
		names[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	for _, want := range []string{"ns8x14-explicit", "session.queue", "session.prepare", "phase.solve",
		"session.finish", "phase.edges", "phase.march", "shocktube.solve"} {
		if names[want] == 0 {
			t.Errorf("no %s span in %v", want, names)
		}
	}
	rd := newReadings()
	opLayers(rd, recs, nil)
	if got := rd.val[stepsMetric("ns8x14-explicit", "solve")]; got <= 0 || got >= 2500 {
		t.Errorf("smoke case steps = %g", got)
	}
}

// The refit probe refits, so fvm.refits counts something on every workload.
func TestRefitProbeRefits(t *testing.T) {
	if testing.Short() {
		t.Skip("solves")
	}
	r, err := newRunner()
	if err != nil {
		t.Fatal(err)
	}
	rec := r.run(context.Background(), &refitKind, refitKind.twall, newTracer())
	if rec.err != nil {
		t.Fatal(rec.err)
	}
	rd := newReadings()
	opLayers(rd, []opRecord{rec}, nil)
	if rd.val["fvm.refits"] < 1 || rd.val["fvm.finest_share"] <= 0 {
		t.Errorf("refit probe: %g refits, finest share %g", rd.val["fvm.refits"], rd.val["fvm.finest_share"])
	}
	for _, ph := range refitKind.phases {
		if rd.val[stepsMetric(refitKind.name, ph)] <= 0 {
			t.Errorf("refit probe: no %s steps", ph)
		}
	}
}

// The table gas.table_build_ms times is the one an equilibrium NS solve
// builds: it answers exactly as the solve's own EOS at the converged
// field's cell states.
func TestProbeTableIsSolveTable(t *testing.T) {
	if testing.Short() {
		t.Skip("solves")
	}
	r, err := newRunner()
	if err != nil {
		t.Fatal(err)
	}
	k := &realGasKinds[1]
	f, err := solveField(context.Background(), r, k, k.twall)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := nsTable(gas.NewEquilibriumAir(), k.problem(k.twall))
	if err != nil {
		t.Fatal(err)
	}
	solve := f.res.Solver.Opts.Gas
	for _, q := range f.sample {
		p0, t0, a0, err0 := solve.PrimState(q.Rho, q.E)
		p1, t1, a1, err1 := tab.PrimState(q.Rho, q.E)
		if p0 != p1 || t0 != t1 || a0 != a1 || (err0 == nil) != (err1 == nil) {
			t.Fatalf("state rho=%g e=%g: solve table (%g, %g, %g, %v), probe table (%g, %g, %g, %v)",
				q.Rho, q.E, p0, t0, a0, err0, p1, t1, a1, err1)
		}
	}
}

// A short serve run answers every request correctly in both windows and
// traces the traced one.
func TestServeTrafficSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serves")
	}
	tr := newTracer()
	sv, err := runServe(context.Background(), t.TempDir(), prefillMini, 1, 0.8, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sv.setupOps.failed != 0 || sv.setupOps.attempted != 2*prefillMini {
		t.Fatalf("setup ops %+v", sv.setupOps)
	}
	if len(sv.windows) != 2 {
		t.Fatalf("%d windows", len(sv.windows))
	}
	for i, w := range sv.windows {
		if w.ops.failed != 0 || len(w.hitMS) == 0 || len(w.missMS) == 0 {
			t.Errorf("window %d: %+v, %d hits, %d misses", i, w.ops, len(w.hitMS), len(w.missMS))
		}
	}
	w := sv.windows[1]
	if len(w.casekeyUS) != len(w.hitMS)/probeEvery || len(w.missRuns) != len(w.missMS) {
		t.Errorf("traced window: %d core probes for %d hits, %d miss counters for %d misses",
			len(w.casekeyUS), len(w.hitMS), len(w.missRuns), len(w.missMS))
	}
	for _, c := range w.missRuns {
		if c.steps <= 0 {
			t.Errorf("served miss reported %d steps", c.steps)
		}
	}
	if sv.hitRatio <= 0 || sv.hitRatio >= 1 {
		t.Errorf("ledger hit ratio %g", sv.hitRatio)
	}
	if len(tr.snapshot()) == 0 {
		t.Error("traced window recorded no spans")
	}
}
