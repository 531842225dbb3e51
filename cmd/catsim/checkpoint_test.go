package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cataero/internal/ledger"
)

// Checkpoint flags are ledger-backed; using them without -ledger (or with a
// negative cadence) is a usage error that must fail before any solve starts.
func TestRunCmdCheckpointFlagValidation(t *testing.T) {
	if code := runCmd([]string{"testdata/smoke.json", "-checkpoint", "5"}); code != 2 {
		t.Errorf("-checkpoint without -ledger exit code %d, want 2", code)
	}
	if code := runCmd([]string{"testdata/smoke.json", "-ledger", t.TempDir(), "-checkpoint", "-1"}); code != 2 {
		t.Errorf("negative -checkpoint exit code %d, want 2", code)
	}
}

func TestServeCmdCheckpointFlagValidation(t *testing.T) {
	if code := serveCmd([]string{"-checkpoint", "5"}); code != 2 {
		t.Errorf("serve -checkpoint without -ledger exit code %d, want 2", code)
	}
	if code := serveCmd([]string{"-checkpoint", "-1"}); code != 2 {
		t.Errorf("serve negative -checkpoint exit code %d, want 2", code)
	}
}

// An interrupted `catsim run -checkpoint` leaves a resumable checkpoint in
// the ledger; a plain second invocation over the ledger resumes it —
// marching fewer steps than a cold solve onto a byte-identical artifact —
// files the entry, and drops the checkpoint it superseded.
func TestRunCmdCheckpointResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solve in short mode")
	}
	dir, out := t.TempDir(), t.TempDir()
	// An ideal-gas case far too large to converge inside the timeout (the
	// 40x64 implicit bench case marches several hundred steps over about a
	// second), so the interrupt lands mid-march. An equilibrium-air case
	// could spend the whole timeout building its EOS table, before any step
	// or checkpoint.
	casePath := "testdata/bench.json"

	// Cold reference: one uninterrupted solve over its own ledger.
	coldOut := filepath.Join(out, "cold.json")
	coldDir := t.TempDir()
	if code := runCmd([]string{casePath, "-ledger", coldDir, "-out", coldOut}); code != 0 {
		t.Fatalf("cold run exit code %d, want 0", code)
	}
	coldStep := entryStep(t, coldDir)

	code := runCmd([]string{casePath, "-ledger", dir, "-checkpoint", "5", "-timeout", "100ms"})
	if code == 0 {
		t.Skip("solve converged inside the interrupt timeout; nothing to resume")
	}
	if code != 1 {
		t.Fatalf("interrupted run exit code %d, want 1", code)
	}
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cks, err := l.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 1 {
		t.Fatalf("interrupted run left %d checkpoints, want 1", len(cks))
	}
	if cks[0].Step <= 0 {
		t.Errorf("checkpoint step %d, want > 0", cks[0].Step)
	}
	if len(cks[0].Spec) == 0 {
		t.Error("checkpoint stored without a case spec; serve recovery could not re-submit it")
	}

	resumedOut := filepath.Join(out, "resumed.json")
	if code := runCmd([]string{casePath, "-ledger", dir, "-out", resumedOut}); code != 0 {
		t.Fatalf("resumed run exit code %d, want 0", code)
	}
	if step := entryStep(t, dir); step >= coldStep {
		t.Errorf("resumed run marched %d steps, cold %d; the checkpoint was not resumed", step, coldStep)
	}
	cold, err := os.ReadFile(coldOut)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(resumedOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, cold) {
		t.Error("resumed artifact differs from the cold solve's")
	}
	entries, err := l.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("resumed run filed %d entries, want 1", len(entries))
	}
	if entries[0].Key != cks[0].Key {
		t.Errorf("entry key %s does not match checkpoint key %s", entries[0].Key, cks[0].Key)
	}
	if cks, err := l.Checkpoints(); err != nil || len(cks) != 0 {
		t.Errorf("result did not supersede the checkpoint: %d left, err %v", len(cks), err)
	}

	// A third invocation is a pure ledger hit — and the size-budget GC can
	// then evict the artifact through the CLI.
	if code := runCmd([]string{casePath, "-ledger", dir}); code != 0 {
		t.Errorf("ledger-hit rerun exit code %d, want 0", code)
	}
	if code := ledgerGC([]string{"-ledger", dir, "-max-bytes", "1"}); code != 0 {
		t.Errorf("ledger gc -max-bytes exit code %d, want 0", code)
	}
	if entries, err := l.Entries(); err != nil || len(entries) != 0 {
		t.Errorf("gc -max-bytes left %d entries, err %v", len(entries), err)
	}
}

// entryStep returns the terminal snapshot step of the one entry in a
// ledger directory.
func entryStep(t *testing.T, dir string) int {
	t.Helper()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := l.Entries()
	if err != nil || len(entries) != 1 {
		t.Fatalf("ledger holds %d entries (err %v), want 1", len(entries), err)
	}
	var snap struct {
		Step int `json:"step"`
	}
	if err := json.Unmarshal(entries[0].Snapshot, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Step
}
