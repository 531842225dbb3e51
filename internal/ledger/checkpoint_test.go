package ledger

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cataero/internal/faultinject"
)

func testCheckpoint(seed string, step int) *Checkpoint {
	return &Checkpoint{
		Key:    testKey(seed),
		Spec:   []byte(`{"class":"ns","p_inf":100}`),
		Step:   step,
		Solver: "ns",
		Data:   bytes.Repeat([]byte{0xCA, 0x7C, 0x4B}, 64),
	}
}

func TestCheckpointPutGetRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := testCheckpoint("ckpt-roundtrip", 120)
	if err := l.PutCheckpoint(c); err != nil {
		t.Fatal(err)
	}
	got, err := l.GetCheckpoint(c.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("stored checkpoint missed")
	}
	if !bytes.Equal(got.Data, c.Data) || got.Step != c.Step || got.Solver != c.Solver {
		t.Fatalf("round-trip: got %+v", got)
	}
	if got.Format != FormatVersion || got.Created.IsZero() || got.Checksum == "" {
		t.Fatalf("metadata not stamped: %+v", got)
	}
	// Replacement: a later checkpoint of the same run overwrites.
	c2 := testCheckpoint("ckpt-roundtrip", 240)
	if err := l.PutCheckpoint(c2); err != nil {
		t.Fatal(err)
	}
	if got, _ = l.GetCheckpoint(c.Key); got == nil || got.Step != 240 {
		t.Fatalf("replacement not visible: %+v", got)
	}
	if err := l.DeleteCheckpoint(c.Key); err != nil {
		t.Fatal(err)
	}
	if got, _ = l.GetCheckpoint(c.Key); got != nil {
		t.Fatal("checkpoint survived delete")
	}
	if err := l.DeleteCheckpoint(c.Key); err != nil {
		t.Fatal("deleting an absent checkpoint errored:", err)
	}
}

// TestCheckpointTornFileQuarantined: a mangled checkpoint file must read as
// a miss and be removed — never resumed from.
func TestCheckpointTornFileQuarantined(t *testing.T) {
	defer faultinject.Reset()
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faultinject.SetMangle("ledger.checkpoint-data", func(b []byte) []byte {
		return b[:len(b)/2] // torn write: only half the file made it to disk
	})
	c := testCheckpoint("ckpt-torn", 50)
	if err := l.PutCheckpoint(c); err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	got, err := l.GetCheckpoint(c.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("torn checkpoint was served")
	}
	if l.Stats().Corrupt == 0 {
		t.Fatal("quarantine not counted")
	}
	if _, err := os.Stat(l.path(c.Key, ckptFile)); !os.IsNotExist(err) {
		t.Fatal("torn checkpoint not removed")
	}
}

// TestCheckpointChecksumMismatchQuarantined flips a payload byte in place.
func TestCheckpointChecksumMismatchQuarantined(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := testCheckpoint("ckpt-flip", 10)
	if err := l.PutCheckpoint(c); err != nil {
		t.Fatal(err)
	}
	path := l.path(c.Key, ckptFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"data":"`)) + len(`"data":"`)
	data[i] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := l.GetCheckpoint(c.Key); got != nil {
		t.Fatal("corrupted checkpoint was served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupted checkpoint not removed")
	}
}

func TestCheckpointPutFailureInjection(t *testing.T) {
	defer faultinject.Reset()
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	faultinject.Set("ledger.put-checkpoint", func() error { return boom })
	if err := l.PutCheckpoint(testCheckpoint("ckpt-fail", 1)); !errors.Is(err, boom) {
		t.Fatalf("injected failure not surfaced: %v", err)
	}
	faultinject.Set("ledger.put", func() error { return boom })
	if err := l.Put(testEntry("entry-fail")); !errors.Is(err, boom) {
		t.Fatalf("injected entry failure not surfaced: %v", err)
	}
	faultinject.Reset()
	if err := l.PutCheckpoint(testCheckpoint("ckpt-fail", 1)); err != nil {
		t.Fatalf("put still failing after reset: %v", err)
	}
}

func TestCheckpointsListAndGC(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range []string{"a", "b", "c"} {
		if err := l.PutCheckpoint(testCheckpoint(seed, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Put(testEntry("result")); err != nil {
		t.Fatal(err)
	}
	cks, err := l.Checkpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 3 {
		t.Fatalf("listed %d checkpoints, want 3", len(cks))
	}
	for i := 1; i < len(cks); i++ {
		if cks[i-1].Key >= cks[i].Key {
			t.Fatal("checkpoints not sorted by key")
		}
	}
	// Age-based GC removes expired checkpoints alongside entries.
	entries, checkpoints, err := l.GC(time.Now().Add(time.Hour), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if entries != 1 || checkpoints != 3 {
		t.Fatalf("GC removed %d entries and %d checkpoints, want 1 and 3", entries, checkpoints)
	}
	if cks, _ = l.Checkpoints(); len(cks) != 0 {
		t.Fatalf("%d checkpoints survived GC", len(cks))
	}
}

// TestGCSizeEvictsCheckpointsFirst: under a size budget, every checkpoint
// goes before any result entry, and within each kind the oldest-accessed
// file goes first.
func TestGCSizeEvictsCheckpointsFirst(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eOld, eNew := testEntry("gc-old"), testEntry("gc-new")
	cA, cB := testCheckpoint("gc-ck-a", 1), testCheckpoint("gc-ck-b", 2)
	for _, put := range []func() error{
		func() error { return l.Put(eOld) },
		func() error { return l.Put(eNew) },
		func() error { return l.PutCheckpoint(cA) },
		func() error { return l.PutCheckpoint(cB) },
	} {
		if err := put(); err != nil {
			t.Fatal(err)
		}
	}
	// Stamp mtimes so the LRU order is deterministic: cA colder than cB,
	// eOld colder than eNew.
	base := time.Now().Add(-time.Hour)
	for i, path := range []string{l.path(cA.Key, ckptFile), l.path(cB.Key, ckptFile), l.path(eOld.Key, entryFile), l.path(eNew.Key, entryFile)} {
		if err := os.Chtimes(path, base.Add(time.Duration(i)*time.Minute), base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	// Budget that forces out both checkpoints and the older entry.
	info, err := os.Stat(l.path(eNew.Key, entryFile))
	if err != nil {
		t.Fatal(err)
	}
	entries, checkpoints, err := l.GC(time.Time{}, info.Size(), false)
	if err != nil {
		t.Fatal(err)
	}
	if entries != 1 || checkpoints != 2 {
		t.Fatalf("size-budget GC removed %d entries and %d checkpoints, want 1 and 2", entries, checkpoints)
	}
	for _, gone := range []string{l.path(cA.Key, ckptFile), l.path(cB.Key, ckptFile), l.path(eOld.Key, entryFile)} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("%s survived eviction", filepath.Base(gone))
		}
	}
	if got, _ := l.Get(eNew.Key); got == nil {
		t.Fatal("newest entry was evicted under a budget that fits it")
	}

	// A budget the ledger already fits evicts nothing.
	if entries, checkpoints, err = l.GC(time.Time{}, 1<<30, false); err != nil || entries+checkpoints != 0 {
		t.Fatalf("GC under budget removed %d entries and %d checkpoints (err %v), want none", entries, checkpoints, err)
	}
}

// TestGCSizePartialBudget: eviction stops as soon as the ledger fits.
func TestGCSizePartialBudget(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(testEntry("partial")); err != nil {
		t.Fatal(err)
	}
	if err := l.PutCheckpoint(testCheckpoint("partial-ck", 7)); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(l.path(testKey("partial"), entryFile))
	if err != nil {
		t.Fatal(err)
	}
	// Budget fits the entry alone: only the checkpoint goes.
	entries, checkpoints, err := l.GC(time.Time{}, info.Size(), false)
	if err != nil {
		t.Fatal(err)
	}
	if entries != 0 || checkpoints != 1 {
		t.Fatalf("removed %d entries and %d checkpoints, want only the checkpoint", entries, checkpoints)
	}
	if got, _ := l.Get(testKey("partial")); got == nil {
		t.Fatal("entry evicted although budget fits it")
	}
}
