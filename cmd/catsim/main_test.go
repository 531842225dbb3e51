package main

import (
	"os"
	"path/filepath"
	"testing"

	"cataero"
)

func TestRunFigsUnknownFigure(t *testing.T) {
	if code := runFigs("42", 1, 0, "", "", "", 0, false); code != 2 {
		t.Errorf("unknown figure exit code %d, want 2", code)
	}
	if code := runFigs("", 1, 0, "", "", "", 0, false); code != 2 {
		t.Errorf("empty figure list exit code %d, want 2", code)
	}
}

func TestTrendArrow(t *testing.T) {
	mk := func(rs ...float64) []cataero.HistoryPoint {
		out := make([]cataero.HistoryPoint, len(rs))
		for i, r := range rs {
			out[i] = cataero.HistoryPoint{Step: i + 1, Residual: r}
		}
		return out
	}
	if got := trendArrow(nil); got != "→" {
		t.Errorf("empty history arrow %q", got)
	}
	if got := trendArrow(mk(100, 50, 10)); got != "↓" {
		t.Errorf("falling residual arrow %q", got)
	}
	if got := trendArrow(mk(10, 50, 100)); got != "↑" {
		t.Errorf("rising residual arrow %q", got)
	}
	if got := trendArrow(mk(10, 11, 10.5)); got != "→" {
		t.Errorf("flat residual arrow %q", got)
	}
}

func TestCheckTimeSteppingFailsFast(t *testing.T) {
	if checkTimeStepping("dual-time-o-matic") {
		t.Error("unknown integrator accepted")
	}
	if !checkTimeStepping("") || !checkTimeStepping("implicit") || !checkTimeStepping("explicit") {
		t.Error("valid integrator names rejected")
	}
}

func TestCheckFluxFailsFast(t *testing.T) {
	if checkFlux("upwind-o-matic") {
		t.Error("unknown kernel accepted")
	}
	for _, k := range []string{"", "hlle", "hllc", "ausm+"} {
		if !checkFlux(k) {
			t.Errorf("kernel %q rejected", k)
		}
	}
}

func TestFigsCmdRejectsUnknownFluxBeforeSolving(t *testing.T) {
	// Figure 9 is the slowest solve in the suite; an unknown kernel must
	// abort with a usage error before it ever starts.
	if code := figsCmd([]string{"-fig", "9", "-flux", "nope"}); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
}

func TestRunCmdSmokeCase(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solve in short mode")
	}
	if code := runCmd([]string{"testdata/smoke.json", "-progress"}); code != 0 {
		t.Errorf("smoke case exit code %d", code)
	}
	if code := runCmd([]string{"testdata/missing.json"}); code != 1 {
		t.Errorf("missing case exit code %d, want 1", code)
	}
	if code := runCmd([]string{}); code != 2 {
		t.Errorf("no-argument exit code %d, want 2", code)
	}
}

// A bad flux inside the case file itself must fail when LoadCase parses
// it (exit 1, like a case-file "cycle":"v"), before the session builds
// anything — not mid-solve.
func TestRunCmdRejectsCaseFileFlux(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	data := []byte(`{"class":"ns","chemistry":"ideal","p_inf":100,"t_inf":250,"v_inf":2000,
		"nose_radius":0.3,"ni":8,"nj":14,"max_steps":50,"flux":"upwind-o-matic"}`)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runCmd([]string{path}); code != 1 {
		t.Errorf("case-file flux exit code %d, want 1", code)
	}
}

func TestCheckLimiterAndCycleFailFast(t *testing.T) {
	if checkLimiter("superbee") {
		t.Error("unknown limiter accepted")
	}
	for _, l := range []string{"", "minmod", "vanalbada"} {
		if !checkLimiter(l) {
			t.Errorf("limiter %q rejected", l)
		}
	}
	// The cycle is no flag any more; a case file naming anything but the
	// cascade fails at load, before any solve starts.
	path := filepath.Join(t.TempDir(), "v.json")
	data := []byte(`{"class":"ns","chemistry":"ideal","p_inf":100,"t_inf":250,"v_inf":2000,
		"nose_radius":0.3,"ni":8,"nj":14,"max_steps":50,"cycle":"v"}`)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runCmd([]string{path}); code != 1 {
		t.Errorf("case-file cycle \"v\" exit code %d, want 1", code)
	}
}

func TestCheckImplicitSweepFailsFast(t *testing.T) {
	if checkImplicitSweep("zebra") {
		t.Error("unknown sweep accepted")
	}
	for _, s := range []string{"", "jline", "adi"} {
		if !checkImplicitSweep(s) {
			t.Errorf("sweep %q rejected", s)
		}
	}
	if code := runCmd([]string{"testdata/smoke.json", "-implicitsweep", "zebra"}); code != 2 {
		t.Errorf("bad sweep exit code %d, want 2", code)
	}
}

// The baseline diff must fail in both directions: a result with no baseline
// entry (a rename would silently drop its gate) and a baseline entry that no
// longer runs.
// Bad multilevel flags abort run/figs with a usage error before any solve
// starts: unknown limiters and negative counts are rejected.
func TestRunCmdRejectsBadMultilevelFlags(t *testing.T) {
	if code := runCmd([]string{"testdata/smoke.json", "-limiter", "superbee"}); code != 2 {
		t.Errorf("bad limiter exit code %d, want 2", code)
	}
	if code := runCmd([]string{"testdata/smoke.json", "-levels", "-3"}); code != 2 {
		t.Errorf("negative levels exit code %d, want 2", code)
	}
	if code := figsCmd([]string{"-fig", "9", "-levels", "-1"}); code != 2 {
		t.Errorf("figs negative levels exit code %d, want 2", code)
	}
}

// The smoke case solves multilevel end to end through the CLI.
func TestRunCmdSmokeCaseMultilevel(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solve in short mode")
	}
	if code := runCmd([]string{"testdata/smoke.json", "-timestep", "implicit", "-levels", "3"}); code != 0 {
		t.Errorf("multilevel smoke exit code %d", code)
	}
}
