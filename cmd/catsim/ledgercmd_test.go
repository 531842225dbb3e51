package main

import (
	"bytes"
	"strings"
	"testing"

	"cataero/internal/ledger"
)

// `catsim ledger ls` lists an unfinished run's checkpoint after the stored
// entries, so a resumable solve is visible before anything resumes it.
func TestLedgerLsListsCheckpoints(t *testing.T) {
	l, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	done := ledger.Checksum([]byte("solved case"))
	partial := ledger.Checksum([]byte("interrupted case"))
	if err := l.Put(&ledger.Entry{Key: done, Spec: []byte(`{}`), Result: []byte(`{}`), Solver: "ns", ElapsedMS: 12.5}); err != nil {
		t.Fatal(err)
	}
	if err := l.PutCheckpoint(&ledger.Checkpoint{Key: partial, Spec: []byte(`{}`), Step: 160, Data: []byte("state")}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := listLedger(&out, l); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := []string{"KEY", done[:16] + "  ns", "CHECKPOINT", partial[:16] + "  160", "1 entries, 1 checkpoints"}
	if len(lines) != len(want) {
		t.Fatalf("ledger ls printed %d lines, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, prefix := range want {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
}
