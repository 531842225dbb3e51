package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// stderrOf runs one catsim command and returns its exit code and what it
// wrote to stderr.
func stderrOf(t *testing.T, cmd func([]string) int, args ...string) (int, string) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = out
	code := cmd(args)
	os.Stderr = stderr
	out.Close()
	msg, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(msg)
}

// checkNameFlag sends an unknown name and each valid one through flag of
// `catsim run` and, with figs, of `catsim figs -fig 9`. The unknown name
// exits 2 before any solve starts, with fvm.CheckNames' list of the valid
// names on stderr. A valid name passes that check: paired with -levels -1
// it exits 2 on the -levels check that follows, so nothing solves.
func checkNameFlag(t *testing.T, flag, unknown string, valid []string, figs bool) {
	t.Helper()
	cmds := map[string]func([]string) int{
		"run": func(a []string) int { return runCmd(append([]string{"testdata/smoke.json"}, a...)) },
	}
	if figs {
		cmds["figs"] = func(a []string) int { return figsCmd(append([]string{"-fig", "9"}, a...)) }
	}
	for cmd, f := range cmds {
		if code, msg := stderrOf(t, f, flag, unknown); code != 2 || !strings.Contains(msg, fmt.Sprint(valid)) {
			t.Errorf("%s %s %s: exit code %d, stderr %q; want 2 and the names %v", cmd, flag, unknown, code, msg, valid)
		}
		for _, name := range append([]string{""}, valid...) {
			if code, msg := stderrOf(t, f, flag, name, "-levels", "-1"); code != 2 || !strings.Contains(msg, "-levels") {
				t.Errorf("%s %s %q rejected: exit code %d, stderr %q; want the -levels error", cmd, flag, name, code, msg)
			}
		}
	}
}

func TestCheckFluxFailsFast(t *testing.T) {
	checkNameFlag(t, "-flux", "upwind-o-matic", cataero.FluxKernels(), true)
}

func TestCheckTimeSteppingFailsFast(t *testing.T) {
	checkNameFlag(t, "-timestep", "dual-time-o-matic", cataero.TimeSteppings(), true)
}

// figs has no sweep flag.
func TestCheckImplicitSweepFailsFast(t *testing.T) {
	checkNameFlag(t, "-implicitsweep", "zebra", cataero.ImplicitSweeps(), false)
}

func TestCheckLimiterFailsFast(t *testing.T) {
	checkNameFlag(t, "-limiter", "superbee", cataero.Limiters(), true)
}

// The cycle is no flag any more; a case file naming anything but the
// cascade fails at load, before any solve starts.
func TestRunCmdRejectsCaseFileCycle(t *testing.T) {
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
