package cataero

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"cataero/internal/fvm"
	"cataero/internal/thermo"
)

// goldenKeys pin the canonical content keys of the checked-in case files.
// These keys address ledger entries on disk: a change here is a cache-busting
// format change and should be deliberate (and called out in CHANGES.md), not
// incidental fallout of a refactor.
var goldenKeys = map[string]string{
	"examples/casefile/case.json":    "c7c9f726be871ea5b4be1dc2bd6f49a30e9704f03a7c05020824b6285a964123",
	"cmd/catsim/testdata/smoke.json": "1cc9b7529db52a2941bad6511fc12dbd84921717577c73d19063dedb4466e5b9",
	// bench.json re-keyed in 0.9.0: an implicit-stepping case now spells out
	// its default implicit_sweep in the canonical form.
	"cmd/catsim/testdata/bench.json": "d7068fb140c7d5242871661f852bf46c03a3b1f53fc4bbf7c8b38a93a827b537",
}

func TestCaseKeyGolden(t *testing.T) {
	for path, want := range goldenKeys {
		p, err := LoadCase(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		key, err := CaseKey(p)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if key != want {
			t.Errorf("%s: key %s, want %s (a deliberate canonical-format change must update goldenKeys)", path, key, want)
		}
		reparsesToKey(t, p)
	}
}

// sequencedGoldenKeys pin bench.json's keys under the sequencing knobs
// ("levels" >= 2 spells "cycle":"cascade" in the canonical form). Like
// goldenKeys, they address stored ledger entries.
var sequencedGoldenKeys = []struct {
	levels, refitEvery int
	key                string
}{
	{2, 0, "5e93082059d49a8880b77d4c30564e1f73844d8968da282ad3e102021d3804fd"},
	{3, 0, "5bc886127dcbdbc36869c9c6027ce4fb7bb8d5076a8f160dc6a80b1771ad42b8"},
	{2, 40, "d5ee1c4079caa8ace4f911ac808775d509216c41a0d1a56d1c4975d7a53822df"},
}

func TestCaseKeyGoldenSequenced(t *testing.T) {
	for _, c := range sequencedGoldenKeys {
		p, err := LoadCase("cmd/catsim/testdata/bench.json")
		if err != nil {
			t.Fatal(err)
		}
		p.Levels, p.RefitEvery = c.levels, c.refitEvery
		if key := keyOf(t, p); key != c.key {
			t.Errorf("bench.json levels=%d refit_every=%d: key %s, want %s", c.levels, c.refitEvery, key, c.key)
		}
		reparsesToKey(t, p)
	}
}

// reparsesToKey checks the canonical JSON stored beside a ledger
// checkpoint: Server.Recover re-parses and re-keys it after a restart, so it
// must parse back to a problem with the key it was stored under.
func reparsesToKey(t *testing.T, p Problem) {
	t.Helper()
	np, err := NewSession().Normalize(p)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := CanonicalJSON(np)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseCase(canon)
	if err != nil {
		t.Fatalf("canonical json %s does not parse: %v", canon, err)
	}
	if got, want := keyOf(t, q), keyOf(t, np); got != want {
		t.Errorf("canonical json re-keys to %s, want %s\njson %s", got, want, canon)
	}
}

// keyOf is the must-variant of CaseKey for tests.
func keyOf(t *testing.T, p Problem) string {
	t.Helper()
	key, err := CaseKey(p)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// hashProblem is the reference case the key-equivalence tests perturb.
func hashProblem() Problem {
	return Problem{
		Class:     EBL,
		Chemistry: EquilibriumAir,
		PInf:      4.8, TInf: 217, VInf: 6740,
		NoseRadius: 0.6, TWall: 1200,
		NStations: 14,
	}
}

// TestCaseKeyIgnoresLabel: the report label never affects the solve, so it
// never affects the key.
func TestCaseKeyIgnoresLabel(t *testing.T) {
	p := hashProblem()
	base := keyOf(t, p)
	p.Name = "a descriptive label"
	if keyOf(t, p) != base {
		t.Fatal("Name changed the content key")
	}
	p.Monitor = MonitorFunc(func(Progress) {})
	if keyOf(t, p) != base {
		t.Fatal("Monitor changed the content key")
	}
}

// TestCaseKeyFieldOrderInvariant: every top-level permutation of the case
// JSON hashes identically. Permutations are exercised by rebuilding the
// document with its keys reversed and rotated — orders a hand-written case
// file could plausibly use.
func TestCaseKeyFieldOrderInvariant(t *testing.T) {
	p, err := LoadCase("cmd/catsim/testdata/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	base := keyOf(t, p)

	doc, err := CanonicalJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(doc, &fields); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	reorder := func(perm []string) string {
		var b strings.Builder
		b.WriteByte('{')
		for i, k := range perm {
			if i > 0 {
				b.WriteByte(',')
			}
			kb, _ := json.Marshal(k)
			b.Write(kb)
			b.WriteByte(':')
			b.Write(fields[k])
		}
		b.WriteByte('}')
		return b.String()
	}

	perms := [][]string{}
	rev := make([]string, len(keys))
	for i, k := range keys {
		rev[len(keys)-1-i] = k
	}
	perms = append(perms, rev)
	for shift := 1; shift < len(keys); shift += 3 {
		rot := append(append([]string{}, keys[shift:]...), keys[:shift]...)
		perms = append(perms, rot)
	}

	for i, perm := range perms {
		var q Problem
		if err := json.Unmarshal([]byte(reorder(perm)), &q); err != nil {
			t.Fatalf("perm %d: %v", i, err)
		}
		if got := keyOf(t, q); got != base {
			t.Fatalf("perm %d: key %s, want %s\ndoc: %s", i, got, base, reorder(perm))
		}
	}
}

// TestCaseKeyExplicitDefaultsCollide: a spec that spells out every default a
// solve would fill hashes identically to the minimal spec that omits them.
func TestCaseKeyExplicitDefaultsCollide(t *testing.T) {
	minimal := Problem{
		Class: NS,
		PInf:  5474.9, TInf: 216.65, VInf: 1770.4,
		NoseRadius: 0.3,
		NI:         8, NJ: 14, MaxSteps: 120,
	}
	explicit := minimal
	explicit.Chemistry = IdealGas
	explicit.TWall = 1200
	explicit.Gamma = thermo.GammaAir
	explicit.Flux = fvm.DefaultFlux
	explicit.TimeStepping = fvm.DefaultTimeStepping
	explicit.Limiter = fvm.DefaultLimiter

	if keyOf(t, minimal) != keyOf(t, explicit) {
		t.Fatal("explicitly spelled defaults changed the content key")
	}
}

// TestCaseKeyCycleDefault: a multilevel case keys the same whether or not it
// spells the cascade, the one multilevel schedule.
func TestCaseKeyCycleDefault(t *testing.T) {
	p := hashProblem()
	p.Class = NS
	p.NI, p.NJ, p.MaxSteps = 8, 14, 120
	p.Levels = 2
	implicitCycle := keyOf(t, p)
	p.Cycle = "cascade"
	if keyOf(t, p) != implicitCycle {
		t.Fatal("default cycle spelled out changed the key of a multilevel case")
	}
}

// Both spellings of a two-level case share one key, so they must be one
// solve: byte-identical result artifacts, or the ledger would answer one
// with the other's result.
func TestCycleSpellingsSolveIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solves in short mode")
	}
	var keys [2]string
	var results [2][]byte
	for i, cycle := range []string{"", "cascade"} {
		p := fastNSProblem()
		p.TimeStepping, p.Levels, p.MaxSteps, p.Cycle = fvm.TimeSteppingImplicit, 2, 3000, cycle
		keys[i] = keyOf(t, p)
		env, err := NewSession().Solve(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if results[i], err = json.Marshal(env); err != nil {
			t.Fatal(err)
		}
	}
	if keys[0] != keys[1] {
		t.Fatalf("cycle spellings keyed apart: %s vs %s", keys[0], keys[1])
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("one key, two results:\n  cycle \"\":        %s\n  cycle \"cascade\": %s", results[0], results[1])
	}
}

// TestCaseKeyImplicitSweepDefault: the sweep pattern participates in the key
// only when the implicit integrator would consult it.
func TestCaseKeyImplicitSweepDefault(t *testing.T) {
	p := hashProblem()
	p.Class = NS
	p.NI, p.NJ, p.MaxSteps = 8, 14, 120
	p.TimeStepping = fvm.TimeSteppingImplicit
	implied := keyOf(t, p)
	p.ImplicitSweep = fvm.DefaultImplicitSweep
	if keyOf(t, p) != implied {
		t.Fatal("default sweep spelled out changed the key of an implicit case")
	}
	p.ImplicitSweep = fvm.ImplicitSweepADI
	if keyOf(t, p) == implied {
		t.Fatal("adi sweep did not change the content key")
	}
}

// TestCaseKeySeparatesPhysicsAndNumerics: anything that changes the solve
// changes the key.
func TestCaseKeySeparatesPhysicsAndNumerics(t *testing.T) {
	base := keyOf(t, hashProblem())
	perturb := []func(*Problem){
		func(p *Problem) { p.VInf += 100 },
		func(p *Problem) { p.TWall = 900 },
		func(p *Problem) { p.Chemistry = IdealGas },
		func(p *Problem) { p.NStations = 30 },
		func(p *Problem) { p.Limiter = fvm.LimiterVanAlbada },
	}
	for i, mutate := range perturb {
		p := hashProblem()
		mutate(&p)
		if keyOf(t, p) == base {
			t.Errorf("perturbation %d did not change the content key", i)
		}
	}
}

// TestCanonicalJSONIsSortedAndStable: the canonical encoding is
// deterministic and key-sorted at the top level.
func TestCanonicalJSONIsSortedAndStable(t *testing.T) {
	p := hashProblem()
	a, err := CanonicalJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalJSON(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("canonical JSON not deterministic")
	}
	dec := json.NewDecoder(strings.NewReader(string(a)))
	if _, err := dec.Token(); err != nil { // opening brace
		t.Fatal(err)
	}
	var names []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		name, ok := tok.(string)
		if !ok {
			t.Fatalf("unexpected token %v in canonical JSON", tok)
		}
		names = append(names, name)
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("canonical JSON keys not sorted: %v", names)
	}
}
