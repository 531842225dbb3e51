package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testKey builds a deterministic valid content key from a seed.
func testKey(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:])
}

func testEntry(seed string) *Entry {
	return &Entry{
		Key:       testKey(seed),
		Spec:      json.RawMessage(`{"class":"ns","p_inf":100}`),
		Result:    json.RawMessage(fmt.Sprintf(`{"class":"ns","q_conv_stag":%d}`, len(seed))),
		Solver:    "ns",
		Version:   "test",
		ElapsedMS: 12.5,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("roundtrip")
	if err := l.Put(e); err != nil {
		t.Fatal(err)
	}
	got, err := l.Get(e.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("stored entry missed")
	}
	if string(got.Result) != string(e.Result) {
		t.Fatalf("result round-trip: got %s want %s", got.Result, e.Result)
	}
	if got.Solver != e.Solver || got.Version != e.Version || got.ElapsedMS != e.ElapsedMS {
		t.Fatalf("metadata round-trip: got %+v", got)
	}
	if got.Format != FormatVersion {
		t.Fatalf("format not stamped: %d", got.Format)
	}
	if got.Created.IsZero() {
		t.Fatal("created not stamped")
	}
	if st := l.Stats(); st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSurvivesReopen is the restart-persistence acceptance check at the
// store level: a new Ledger over the same directory — a restarted process —
// still hits.
func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("reopen")
	if err := l.Put(e); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l2.Get(e.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || string(got.Result) != string(e.Result) {
		t.Fatalf("entry did not survive reopen: %+v", got)
	}
}

func TestMissIsNilNil(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Get(testKey("never stored"))
	if err != nil || got != nil {
		t.Fatalf("miss: got %v, %v", got, err)
	}
	if st := l.Stats(); st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", strings.Repeat("z", 64), strings.Repeat("A", 64)} {
		if _, err := l.Get(key); err == nil {
			t.Errorf("Get(%q): no error", key)
		}
		if err := l.Put(&Entry{Key: key, Result: json.RawMessage(`{}`)}); err == nil {
			t.Errorf("Put(%q): no error", key)
		}
		if _, err := l.GetCheckpoint(key); err == nil {
			t.Errorf("GetCheckpoint(%q): no error", key)
		}
		if err := l.PutCheckpoint(&Checkpoint{Key: key, Data: []byte{1}}); err == nil {
			t.Errorf("PutCheckpoint(%q): no error", key)
		}
		if err := l.DeleteCheckpoint(key); err == nil {
			t.Errorf("DeleteCheckpoint(%q): no error", key)
		}
	}
}

// TestHalfWrittenEntryQuarantined: a truncated entry file — the on-disk
// signature of a crash mid-write without the atomic rename, or of file
// damage — must be detected, removed and reported as a miss, never served.
func TestHalfWrittenEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("torn")
	if err := l.Put(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, e.Key[:2], e.Key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-document, as a torn write would.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := l.Get(e.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("half-written entry served: %+v", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("half-written entry not quarantined")
	}
	if st := l.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats: %+v", st)
	}

	// The quarantined slot accepts a fresh solve.
	if err := l.Put(e); err != nil {
		t.Fatal(err)
	}
	if got, _ := l.Get(e.Key); got == nil {
		t.Fatal("re-put after quarantine missed")
	}
}

// TestTamperedResultQuarantined: a syntactically valid entry whose result
// bytes no longer match the checksum must not be served.
func TestTamperedResultQuarantined(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("tamper")
	if err := l.Put(e); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, e.Key[:2], e.Key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"q_conv_stag":6`, `"q_conv_stag":7`, 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found in entry")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := l.Get(e.Key); err != nil || got != nil {
		t.Fatalf("tampered entry served: %v, %v", got, err)
	}
}

func TestForeignFormatIsMissNotQuarantine(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("future format")
	for _, tc := range []struct {
		k       *kind
		payload string
		get     func() (found bool, err error)
	}{
		{entryFile, `"result":{}`, func() (bool, error) { e, err := l.Get(key); return e != nil, err }},
		{ckptFile, `"data":"AQ=="`, func() (bool, error) { c, err := l.GetCheckpoint(key); return c != nil, err }},
	} {
		path := l.path(key, tc.k)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		future := fmt.Sprintf(`{"format":%d,"key":%q,%s,"checksum":"x"}`, FormatVersion+1, key, tc.payload)
		if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
			t.Fatal(err)
		}
		if found, err := tc.get(); err != nil || found {
			t.Fatalf("foreign-format %s: found %v, err %v", tc.k.ext, found, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("foreign-format %s was deleted", tc.k.ext)
		}
	}
	if st := l.Stats(); st.Corrupt != 0 {
		t.Fatalf("foreign formats counted as corrupt: %+v", st)
	}
}

func TestKeysAndEntries(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 5; i++ {
		e := testEntry(fmt.Sprintf("entry %d", i))
		if err := l.Put(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e.Key)
	}
	keys, err := l.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("keys: got %d want %d", len(keys), len(want))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("keys not sorted")
		}
	}
	entries, err := l.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("entries: got %d want %d", len(entries), len(want))
	}
}

func TestGC(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := testEntry("old entry")
	old.Created = time.Now().UTC().Add(-48 * time.Hour)
	fresh := testEntry("fresh entry")
	if err := l.Put(old); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(fresh); err != nil {
		t.Fatal(err)
	}
	// A damaged entry is always collected, whatever its age.
	damaged := testEntry("damaged entry")
	if err := l.Put(damaged); err != nil {
		t.Fatal(err)
	}
	dpath := filepath.Join(dir, damaged.Key[:2], damaged.Key+".json")
	if err := os.WriteFile(dpath, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed, checkpoints, err := l.GC(time.Now().UTC().Add(-24*time.Hour), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || checkpoints != 0 {
		t.Fatalf("gc removed %d entries and %d checkpoints, want 2 (expired + damaged) and 0", removed, checkpoints)
	}
	if got, _ := l.Get(old.Key); got != nil {
		t.Fatal("expired entry survived gc")
	}
	if got, _ := l.Get(fresh.Key); got == nil {
		t.Fatal("fresh entry collected")
	}

	// A zero cutoff keeps everything.
	if removed, _, err := l.GC(time.Time{}, 0, false); err != nil || removed != 0 {
		t.Fatalf("zero-cutoff gc: removed %d, %v", removed, err)
	}
}

// TestGCDryRunMatchesSweep: a dry sweep removes nothing and reports exactly
// what the real sweep then removes — expired and damaged entries and an
// expired checkpoint alike, and under a size budget what the budget then
// evicts from the rest.
func TestGCDryRunMatchesSweep(t *testing.T) {
	for _, budgeted := range []bool{false, true} {
		l, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cutoff := time.Now().UTC().Add(-time.Hour)
		old, fresh, damaged := testEntry("dry old"), testEntry("dry fresh"), testEntry("dry damaged")
		old.Created = cutoff.Add(-time.Hour)
		oldCk, freshCk := testCheckpoint("dry old ckpt", 5), testCheckpoint("dry fresh ckpt", 6)
		oldCk.Created = cutoff.Add(-time.Hour)
		for _, e := range []*Entry{old, fresh, damaged} {
			if err := l.Put(e); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []*Checkpoint{oldCk, freshCk} {
			if err := l.PutCheckpoint(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(l.path(damaged.Key, entryFile), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		swept := []string{l.path(old.Key, entryFile), l.path(damaged.Key, entryFile), l.path(oldCk.Key, ckptFile)}
		kept := []string{l.path(fresh.Key, entryFile), l.path(freshCk.Key, ckptFile)}
		wantE, wantC := 2, 1
		var maxBytes int64
		if budgeted {
			// A budget the fresh entry alone fits: the age sweep leaves the
			// fresh checkpoint too, and the budget evicts it.
			info, err := os.Stat(kept[0])
			if err != nil {
				t.Fatal(err)
			}
			maxBytes = info.Size()
			swept, kept = append(swept, kept[1]), kept[:1]
			wantC = 2
		}

		entries, checkpoints, err := l.GC(cutoff, maxBytes, true)
		if err != nil {
			t.Fatal(err)
		}
		if entries != wantE || checkpoints != wantC {
			t.Fatalf("dry gc (max %d bytes) reports %d entries and %d checkpoints, want %d and %d",
				maxBytes, entries, checkpoints, wantE, wantC)
		}
		for _, path := range append(swept, kept...) {
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("dry gc removed %s", filepath.Base(path))
			}
		}

		gotE, gotC, err := l.GC(cutoff, maxBytes, false)
		if err != nil {
			t.Fatal(err)
		}
		if gotE != entries || gotC != checkpoints {
			t.Fatalf("gc (max %d bytes) removed %d entries and %d checkpoints; the dry run reported %d and %d",
				maxBytes, gotE, gotC, entries, checkpoints)
		}
		for _, path := range swept {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("gc (max %d bytes) kept %s", maxBytes, filepath.Base(path))
			}
		}
		for _, path := range kept {
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("gc (max %d bytes) removed %s", maxBytes, filepath.Base(path))
			}
		}
	}
}

func TestConcurrentPutGet(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := testEntry(fmt.Sprintf("concurrent %d", i%4)) // contended keys
			if err := l.Put(e); err != nil {
				t.Error(err)
				return
			}
			got, err := l.Get(e.Key)
			if err != nil || got == nil {
				t.Errorf("get after put: %v, %v", got, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestGetReusesVerifiedEntry: a repeat Get of an unchanged file returns the
// entry the first Get decoded, and still bumps the file's mtime and counts
// the hit. A new record under the key, or another handle, decodes afresh.
func TestGetReusesVerifiedEntry(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("warm")
	if err := l.Put(e); err != nil {
		t.Fatal(err)
	}
	first, err := l.Get(e.Key)
	if err != nil || first == nil {
		t.Fatalf("first get: %v, %v", first, err)
	}
	path := l.path(e.Key, entryFile)
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	second, err := l.Get(e.Key)
	if err != nil || second != first {
		t.Fatalf("repeat get of unchanged bytes: %p (err %v), want the first entry %p", second, err, first)
	}
	if info, err := os.Stat(path); err != nil || !info.ModTime().After(old) {
		t.Fatalf("repeat get did not bump the mtime (err %v)", err)
	}
	if st := l.Stats(); st.Hits != 2 {
		t.Fatalf("stats: %+v, want 2 hits", st)
	}

	e.Result = json.RawMessage(`{"class":"ns","q_conv_stag":5}`)
	if err := l.Put(e); err != nil {
		t.Fatal(err)
	}
	third, err := l.Get(e.Key)
	if err != nil || third == nil || third == first || string(third.Result) != string(e.Result) {
		t.Fatalf("get after a new put: %+v (err %v)", third, err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := l2.Get(e.Key); err != nil || other == nil || other == third {
		t.Fatalf("second handle shares the first handle's entry: %p (err %v)", other, err)
	}
}

// TestRewrittenInPlaceAfterWarmGetQuarantined: a file changed in one byte
// after a warm Get — same size, mtime restored — is verified again on the
// next Get through the same handle, fails its checksum and is quarantined.
func TestRewrittenInPlaceAfterWarmGetQuarantined(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry("rewrite")
	if err := l.Put(e); err != nil {
		t.Fatal(err)
	}
	if warm, err := l.Get(e.Key); err != nil || warm == nil {
		t.Fatalf("warm get: %v, %v", warm, err)
	}
	path := l.path(e.Key, entryFile)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(data, []byte(`"q_conv_stag":7`), []byte(`"q_conv_stag":8`), 1)
	if bytes.Equal(flipped, data) {
		t.Fatal("flip target not found in entry")
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	if got, err := l.Get(e.Key); err != nil || got != nil {
		t.Fatalf("entry rewritten in place served: %+v, %v", got, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("entry rewritten in place not quarantined")
	}
	if st := l.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestVerifiedMemoBounded: a handle remembers at most MemoKeys verified
// entries, and Get returns the right entry for every key past the bound.
func TestVerifiedMemoBounded(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n := MemoKeys + 16
	check := func(i int) {
		t.Helper()
		want := testEntry(fmt.Sprintf("bound %d", i))
		got, err := l.Get(want.Key)
		if err != nil || got == nil || got.Key != want.Key || string(got.Result) != string(want.Result) {
			t.Fatalf("key %d: got %+v (err %v), want result %s", i, got, err, want.Result)
		}
	}
	for i := 0; i < n; i++ {
		if err := l.Put(testEntry(fmt.Sprintf("bound %d", i))); err != nil {
			t.Fatal(err)
		}
		check(i)
	}
	for i := 0; i < n; i++ {
		check(i)
	}
	l.mu.Lock()
	kept := len(l.verified)
	l.mu.Unlock()
	if kept != MemoKeys {
		t.Fatalf("handle remembers %d entries, want the bound %d", kept, MemoKeys)
	}
}
