package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"miss_ms_p50", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the traced run's per-layer metrics, reported by every
// workload. Layers a workload's own ops do not reach are read from the
// probe ops, the layer probes and the short serve traffic the traced run
// adds.
func perLayer() []metricDef {
	defs := []metricDef{
		{"session.queue_ms", "ms"},
		{"session.prepare_ms", "ms"},
		{"session.finish_ms", "ms"},
	}
	for _, k := range allKinds() {
		if k.mode != modeTube {
			defs = append(defs, metricDef{solveMetric(k.name), "ms"})
		}
	}
	for _, k := range allKinds() {
		for _, ph := range k.phases {
			defs = append(defs, metricDef{stepsMetric(k.name, ph), "count"})
		}
	}
	return append(defs, []metricDef{
		{"fvm.cell_step_ns", "ns"},
		{"fvm.finest_share", "ratio"},
		{"fvm.fallbacks", "count"},
		{"fvm.refits", "count"},
		{"fvm.pool_speedup", "ratio"},
		{"fvm.flux_ns_per_face", "ns"},
		{"numerics.btri_us_per_line", "us"},
		{"fvm.ckpt_encode_us", "us"},
		{"fvm.ckpt_bytes", "bytes"},
		{"gas.table_eos_ns", "ns"},
		{"gas.ideal_eos_ns", "ns"},
		{"gas.eq_step_ratio", "ratio"},
		{"gas.table_build_ms", "ms"},
		{"chem.equilibrium_us", "us"},
		{"vsl.profile_ms", "ms"},
		{"vsl.radiation_ms", "ms"},
		{"ebl.stations_ms", "ms"},
		{"pns.edges_ms", "ms"},
		{"pns.march_ms", "ms"},
		{"shocktube.solve_ms", "ms"},
		{"core.casekey_us", "us"},
		{"ledger.get_us", "us"},
		{"ledger.put_us", "us"},
		{"ledger.put_ckpt_us", "us"},
		{"ledger.entry_bytes", "bytes"},
		{"ledger.hit_ratio", "ratio"},
		{"serve.hit_ms_p50", "ms"},
		{"serve.hit_ms_p90", "ms"},
		{"serve.hit_self_us", "us"},
		{"serve.revalidate_ms", "ms"},
		{"serve.solved_in_ms", "ms"},
		{"serve.miss_overhead_ms", "ms"},
		{"serve.refused", "count"},
		{"serve.coalesced", "count"},
		{"load.late_ms_p90", "ms"},
		{"trace.overhead_pct", "%"},
	}...)
}

func stepsMetric(kind, phase string) string { return "fvm.steps." + kind + "." + phase }

func solveMetric(kind string) string { return "session.solve_ms." + kind }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// readings collects metric values with the sample count behind each.
type readings struct {
	val map[string]float64
	n   map[string]int
}

func newReadings() *readings { return &readings{val: map[string]float64{}, n: map[string]int{}} }

func (r *readings) set(name string, v float64, n int) {
	r.val[name] = v
	r.n[name] = n
}

// report builds the result for the given metric set, and one
// human-readable line per metric (value, unit, sample count). A metric that
// was not measured, or is NaN, is an error.
func (r *readings) report(defs []metricDef, t tally) (result, []string, error) {
	res := result{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metric{},
	}
	var lines []string
	for _, d := range defs {
		v, ok := r.val[d.name]
		if !ok {
			return res, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) {
			return res, nil, fmt.Errorf("metric %s is NaN", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		lines = append(lines, fmt.Sprintf("  %-40s %14.6g %-6s (n=%d)", d.name, v, d.unit, r.n[d.name]))
	}
	return res, lines, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

func perSecond(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
