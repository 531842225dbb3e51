// Command perfbench is cataero's end-to-end benchmark. It runs one workload
// (ns-ideal, real-gas or serve) for a seed and prints the end-to-end
// metrics, or with --trace 1 the per-layer metrics, as the last line of its
// output. See README.md in this directory for the workloads and the layer →
// end-to-end mapping, and run.sh for how to build and run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// buildDir holds everything a run writes, relative to the checkout root.
const buildDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "workload: ns-ideal, real-gas or serve")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 15, "measuring time")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced bool) error {
	if _, ok := sweeps[workload]; !ok && workload != "serve" {
		return fmt.Errorf("unknown workload %q (want ns-ideal, real-gas or serve)", workload)
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	// The load is one process with at most two threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ctx := context.Background()
	dir, err := scratchDir(filepath.Join(buildDir, "runs"))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rd := newReadings()
	var ops tally
	var notes []string
	if spec, ok := sweeps[workload]; ok {
		sr, err := runSweep(ctx, spec, seed, seconds, tr)
		if err != nil {
			return err
		}
		ops = sr.ops
		notes = sweepNotes(sr)
		rd.set("setup_s", median(sr.setupS), len(sr.setupS))
		rd.set("ops_per_s", perSecond(sr.opsDone[0], sr.elapsed[0]), sr.opsDone[0])
		rd.set("miss_ms_p50", sr.lat.kindMedianGeomean(), sr.lat.count())
		if traced {
			if err := sweepLayers(ctx, rd, sr, seed, dir, tr, &ops); err != nil {
				return err
			}
		}
	} else {
		sv, err := runServe(ctx, dir, prefillFull, seed, seconds, serveSetups, tr)
		if err != nil {
			return err
		}
		ops = sv.setupOps
		for _, w := range sv.windows {
			ops.merge(w.ops)
		}
		w0 := sv.windows[0]
		notes = serveNotes(sv)
		rd.set("setup_s", median(sv.setupS), len(sv.setupS))
		rd.set("ops_per_s", perSecond(w0.ops.attempted, w0.elapsed), w0.ops.attempted)
		rd.set("miss_ms_p50", median(w0.missMS), len(w0.missMS))
		if traced {
			if err := serveLayers(ctx, rd, sv, seed, dir, tr, &ops); err != nil {
				return err
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rd.set("rss_peak_mb", rss, 1)

	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	res, lines, err := rd.report(defs, ops)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench %s seed %d, %g s, trace %v: %d ops attempted, %d failed (fail_ratio %.4g)\n",
		workload, seed, seconds, traced, ops.attempted, ops.failed, ops.failRatio())
	for _, l := range append(lines, notes...) {
		fmt.Println(l)
	}
	if traced {
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", workload, seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("  spans: %s\n", path)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// sweepNotes are a sweep's human-readable extras: per-kind medians (the
// latency percentiles of mixed-size ops mean little) and the first errors.
func sweepNotes(sr *sweepRun) []string {
	var out []string
	var kinds []string
	for k := range sr.lat {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		out = append(out, fmt.Sprintf("  kind %-22s median %9.2f ms (n=%d)", k, median(sr.lat[k]), len(sr.lat[k])))
	}
	passes := ""
	for _, s := range sr.passS {
		passes += fmt.Sprintf(" %.3f", s)
	}
	out = append(out, "  pass seconds:"+passes)
	out = append(out, "  hit_ms_p50, hit_ms_p90: not applicable (sweeps store no results)")
	return append(out, errNotes(sr.ops.first)...)
}

func serveNotes(sv *serveRun) []string {
	w := sv.windows[0]
	errs := sv.setupOps.first
	for _, w := range sv.windows {
		errs = append(errs, w.ops.first...)
	}
	return append([]string{
		fmt.Sprintf("  hit_ms_p50 %.4f ms, hit_ms_p90 %.4f ms (n=%d); 304s %d; misses %d",
			median(w.hitMS), percentile(w.hitMS, 90), len(w.hitMS), len(w.revalMS), len(w.missMS)),
	}, errNotes(errs)...)
}

func errNotes(errs []error) []string {
	var out []string
	for _, err := range errs {
		out = append(out, "  error: "+err.Error())
	}
	return out
}

// probeKinds are the kinds a traced run executes outside its measured
// traffic: every kind that the workload's own rotation (own) lacks, and the
// refit probe. With them, every kind's Session lifecycle, phases and exact
// counters are measured on every workload.
func probeKinds(own []caseKind) []*caseKind {
	mine := map[string]bool{}
	for _, k := range own {
		mine[k.name] = true
	}
	var out []*caseKind
	for _, k := range allKinds() {
		if !mine[k.name] {
			out = append(out, k)
		}
	}
	return out
}

// probeOps runs each probe kind twice: untraced at its nominal wall
// temperature, which builds the kind's models and EOS table as a sweep's
// warm-up does, then traced at a seeded wall temperature. It returns the
// traced ops.
func probeOps(ctx context.Context, r *runner, kinds []*caseKind, seed uint64, tr *tracer, ops *tally) []opRecord {
	rng := newRand(seed, 5)
	var recs []opRecord
	for _, k := range kinds {
		ops.add(r.run(ctx, k, k.twall, nil).err)
		tw := k.twall * (1 + wallJitter*(2*rng.Float64()-1))
		rec := r.run(ctx, k, tw, tr)
		ops.add(rec.err)
		recs = append(recs, rec)
	}
	return recs
}

// sweepLayers fills a sweep's per-layer metrics: span self times of its
// traced passes, the probe ops, the layer probes and a short serve traffic
// for the service layers.
func sweepLayers(ctx context.Context, rd *readings, sr *sweepRun, seed uint64, dir string, tr *tracer, ops *tally) error {
	recs := probeOps(ctx, sr.r, probeKinds(sr.kinds), seed, tr, ops)
	if err := runProbes(ctx, rd, sr.r, seed, dir); err != nil {
		return err
	}
	sv, err := runServe(ctx, filepath.Join(dir, "serve"), prefillMini, seed, 2, 1, tr)
	if err != nil {
		return err
	}
	for _, w := range sv.windows {
		ops.merge(w.ops)
	}
	spanLayers(rd, tr)
	opLayers(rd, append(sr.traced, recs...), sv.windows[1].missRuns)
	serveTrafficLayers(rd, sv)
	rd.set("load.late_ms_p90", percentile(sr.gapMS, 90), len(sr.gapMS))
	untraced := perSecond(sr.opsDone[0], sr.elapsed[0])
	tracedRate := perSecond(sr.opsDone[1], sr.elapsed[1])
	rd.set("trace.overhead_pct", 100*(untraced/tracedRate-1), sr.opsDone[1])
	return nil
}

// serveLayers fills the serve workload's per-layer metrics: its traced
// window, plus the probe ops of every kind and the layer probes on a
// separate session.
func serveLayers(ctx context.Context, rd *readings, sv *serveRun, seed uint64, dir string, tr *tracer, ops *tally) error {
	r, err := newRunner()
	if err != nil {
		return err
	}
	recs := probeOps(ctx, r, probeKinds(nil), seed, tr, ops)
	if err := runProbes(ctx, rd, r, seed, dir); err != nil {
		return err
	}
	spanLayers(rd, tr)
	opLayers(rd, recs, sv.windows[1].missRuns)
	serveTrafficLayers(rd, sv)
	var late []float64
	for _, w := range sv.windows {
		late = append(late, w.lateMS...)
	}
	rd.set("load.late_ms_p90", percentile(late, 90), len(late))
	w0, w1 := sv.windows[0], sv.windows[1]
	rate0 := perSecond(w0.ops.attempted, w0.elapsed)
	rate1 := perSecond(w1.ops.attempted, w1.elapsed)
	rd.set("trace.overhead_pct", 100*(rate0/rate1-1), w1.ops.attempted)
	return nil
}

// spanLayers reads the span-derived metrics: each Session kind's op time,
// Run lifecycle self times and the marching classes' phases.
func spanLayers(rd *readings, tr *tracer) {
	spans := tr.snapshot()
	for _, k := range allKinds() {
		if k.mode == modeTube {
			continue
		}
		var xs []float64
		for _, s := range spans {
			if s.Parent < 0 && s.Name == k.name {
				xs = append(xs, ms(s.dur()))
			}
		}
		rd.set(solveMetric(k.name), median(xs), len(xs))
	}
	self := selfTimes(spans)
	for _, m := range []struct{ metric, span string }{
		{"session.queue_ms", "session.queue"},
		{"session.prepare_ms", "session.prepare"},
		{"session.finish_ms", "session.finish"},
		{"vsl.profile_ms", "phase.profile"},
		{"vsl.radiation_ms", "phase.radiation"},
		{"ebl.stations_ms", "phase.stations"},
		{"pns.edges_ms", "phase.edges"},
		{"pns.march_ms", "phase.march"},
		{"shocktube.solve_ms", "shocktube.solve"},
	} {
		xs := selfMS(spans, self, m.span)
		rd.set(m.metric, median(xs), len(xs))
	}
}

// opLayers reads the exact counters of a workload's traced ops and served
// misses: each kind's steps per op and phase, the fallbacks and refits of
// all of them, and the finest level's share of multilevel solve time.
// served are the counters the service reported with each traced miss, all
// of the single-phase serve kind.
func opLayers(rd *readings, recs []opRecord, served []runCounts) {
	steps := map[string]int{}
	runs := map[string]int{}
	fallbacks, refits := 0, 0
	var shares []float64
	for _, rec := range recs {
		if rec.watch == nil {
			continue
		}
		runs[rec.kind.name]++
		var total, finest time.Duration
		for _, ph := range rec.watch.phases {
			steps[stepsMetric(rec.kind.name, ph.name)] += ph.steps
			fallbacks += ph.fallbacks
			d := ph.end.Sub(ph.start)
			total += d
			finest = d // the finest level reports last
		}
		refits += rec.watch.refits
		if rec.kind.finiteVolume() && len(rec.watch.phases) > 1 && total > 0 {
			shares = append(shares, float64(finest)/float64(total))
		}
	}
	for _, c := range served {
		runs[serveKind.name]++
		steps[stepsMetric(serveKind.name, serveKind.phases[0])] += c.steps
		fallbacks += c.fallbacks
		refits += c.refits
	}
	counted := 0
	for _, k := range allKinds() {
		counted += runs[k.name]
		for _, ph := range k.phases {
			name := stepsMetric(k.name, ph)
			rd.set(name, ratio(float64(steps[name]), float64(runs[k.name])), runs[k.name])
		}
	}
	rd.set("fvm.fallbacks", float64(fallbacks), counted)
	rd.set("fvm.refits", float64(refits), counted)
	share := 0.0
	for _, s := range shares {
		share += s
	}
	rd.set("fvm.finest_share", ratio(share, float64(len(shares))), len(shares))
}

// serveTrafficLayers reads the service metrics of a serve run: latencies
// from its untraced window, self times from its traced one.
func serveTrafficLayers(rd *readings, sv *serveRun) {
	w0, w1 := sv.windows[0], sv.windows[1]
	rd.set("serve.hit_ms_p50", median(w0.hitMS), len(w0.hitMS))
	rd.set("serve.hit_ms_p90", percentile(w0.hitMS, 90), len(w0.hitMS))
	rd.set("serve.revalidate_ms", median(w0.revalMS), len(w0.revalMS))
	rd.set("core.casekey_us", median(w1.casekeyUS), len(w1.casekeyUS))
	self := 1000*median(w1.hitMS) - median(w1.casekeyUS) - median(w1.getUS)
	rd.set("serve.hit_self_us", self, len(w1.hitMS))
	var solved, overhead []float64
	refused, coalesced := 0, 0
	for _, w := range sv.windows {
		solved = append(solved, w.solvedMS...)
		overhead = append(overhead, w.overheadMS...)
		refused += w.refused
		coalesced += w.coalesced
	}
	rd.set("serve.solved_in_ms", median(solved), len(solved))
	rd.set("serve.miss_overhead_ms", median(overhead), len(overhead))
	rd.set("serve.refused", float64(refused), len(solved))
	rd.set("serve.coalesced", float64(coalesced), len(solved))
	rd.set("ledger.hit_ratio", sv.hitRatio, 1)
}

// scratchDir makes a fresh directory for one run's ledgers under root.
func scratchDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}
