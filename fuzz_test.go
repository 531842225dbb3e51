package cataero

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseCase feeds arbitrary bytes to ParseCase, the decoder behind case
// files and serve request bodies. No input may panic, and every input that
// parses and normalizes must have a CanonicalJSON that parses and
// normalizes back to the same CaseKey: Server.Recover re-keys a
// checkpoint's stored canonical spec that way after a restart.
func FuzzParseCase(f *testing.F) {
	seeds, err := filepath.Glob("cmd/catsim/testdata/*.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed case files (%v)", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, knob := range []string{`"flux":"bogus"`, `"time_stepping":"rk4"`, `"implicit_sweep":"zebra"`, `"limiter":"superbee"`} {
		f.Add([]byte("{" + nsCaseFields + "," + knob + "}"))
	}
	s := NewSession()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseCase(data)
		if err != nil {
			return
		}
		np, err := s.Normalize(p)
		if err != nil {
			return
		}
		key, err := CaseKey(np)
		if err != nil {
			t.Fatalf("normalized case does not key: %v", err)
		}
		canon, err := CanonicalJSON(np)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParseCase(canon)
		if err != nil {
			t.Fatalf("canonical json %s does not parse: %v", canon, err)
		}
		nq, err := s.Normalize(q)
		if err != nil {
			t.Fatalf("canonical json %s does not normalize: %v", canon, err)
		}
		if got, err := CaseKey(nq); err != nil || got != key {
			t.Fatalf("canonical json %s re-keys to %s (%v), want %s", canon, got, err, key)
		}
	})
}
