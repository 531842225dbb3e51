package serve

import (
	"bytes"
	"testing"

	"cataero"
)

// TestPrepareKeysLikeCaseKey: Prepare canonicalizes once and keys the job
// by the digest of the spec it stores. That key and spec must be exactly
// cataero.CaseKey's and cataero.CanonicalJSON's for the checked-in case
// files, whose keys hash_test.go pins.
func TestPrepareKeysLikeCaseKey(t *testing.T) {
	s := cataero.NewSession()
	for _, path := range []string{
		"../../examples/casefile/case.json",
		"../../cmd/catsim/testdata/smoke.json",
		"../../cmd/catsim/testdata/bench.json",
	} {
		p, err := cataero.LoadCase(path)
		if err != nil {
			t.Fatal(err)
		}
		job, err := Prepare(s, p)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		np, err := s.Normalize(p)
		if err != nil {
			t.Fatal(err)
		}
		key, err := cataero.CaseKey(np)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := cataero.CanonicalJSON(np)
		if err != nil {
			t.Fatal(err)
		}
		if job.Key != key || !bytes.Equal(job.Spec, spec) {
			t.Errorf("%s: Prepare keys %s over %s; CaseKey %s over %s", path, job.Key, job.Spec, key, spec)
		}
	}
}
