package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cataero/internal/fvm"
)

// This file defines the canonical form of a case — the content address of
// the run ledger. Two problems that would produce the same solve must hash
// to the same key, so canonicalization normalizes everything that does not
// affect the result:
//
//   - the report label (Problem.Name) is cleared;
//   - the solve-independent defaults are filled (normalize: chemistry,
//     gamma, wall temperature, body from nose radius), so a spec that
//     spells a default explicitly collides with one that omits it;
//   - the finite-volume names left empty resolve to the solver
//     defaults (DefaultFlux/DefaultTimeStepping/DefaultLimiter), and the
//     multilevel cycle to "cascade" when a sequenced solve would use it;
//   - the case-file JSON is re-marshaled through a generic map, so object
//     keys are emitted in sorted order regardless of struct declaration
//     order.
//
// Runtime-only fields have no case-file form and so no part in the key: the
// Monitor and checkpointing never affect the solution, and configuration
// held in function fields (Standoff, Mu, K) is invisible to the ledger.

// Normalize validates the problem and fills the solve-independent defaults
// (freestream checks, sphere body from NoseRadius, ideal-gas chemistry,
// default gamma and wall temperature) — the same normalization every solve
// runs through before dispatch, exported for canonical hashing and serving
// layers.
func Normalize(p Problem) (Problem, error) {
	return normalize(p)
}

// Canonical returns the canonical, default-normalized form of a problem:
// the form whose JSON encoding is hashed into the ledger key. The label is
// cleared and every default a solve would fill is made explicit, so
// semantically identical cases produce identical problems.
func Canonical(p Problem) (Problem, error) {
	p.Name = ""
	p.Monitor = nil
	// Checkpointing never changes the converged solution, so it must not
	// change the content address: a resumed run writes its result under the
	// same key a cold solve of the case would.
	p.CheckpointEvery = 0
	p.CheckpointSink = nil
	p.Restore = nil
	np, err := normalize(p)
	if err != nil {
		return Problem{}, err
	}
	if np.Flux == "" {
		np.Flux = fvm.DefaultFlux
	}
	if np.TimeStepping == "" {
		np.TimeStepping = fvm.DefaultTimeStepping
	}
	if np.Limiter == "" {
		np.Limiter = fvm.DefaultLimiter
	}
	// The sweep pattern matters only when the implicit integrator would
	// consult it; an explicit solve keeps the empty sweep rather than
	// spelling a knob it never reads.
	if np.ImplicitSweep == "" && np.TimeStepping == fvm.TimeSteppingImplicit {
		np.ImplicitSweep = fvm.DefaultImplicitSweep
	}
	// A requested level hierarchy runs the cascade whether or not the spec
	// names it, so both spellings share one key: spell it out. A plain
	// single-level solve keeps the empty cycle rather than inventing a knob
	// it never reads.
	if np.Cycle == "" && np.Levels >= 2 {
		np.Cycle = cycleCascade
	}
	return np, nil
}

// CanonicalJSON returns the canonical JSON encoding of a problem: the
// Canonical problem's case file re-marshaled through a generic map so
// object keys are sorted, suitable for hashing and for storing alongside a
// ledger entry.
func CanonicalJSON(p Problem) ([]byte, error) {
	cp, err := Canonical(p)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	return sortJSON(raw)
}

// CaseKey returns the content address of a problem: the lowercase hex
// SHA-256 of its canonical JSON. Semantically identical cases — field-order
// permutations, explicitly spelled defaults, labels — share a key.
func CaseKey(p Problem) (string, error) {
	canon, err := CanonicalJSON(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// sortJSON re-encodes a JSON document with object keys in sorted order at
// every nesting level (encoding/json sorts map keys), leaving values and
// array order untouched.
func sortJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep numbers byte-for-byte, not float64 round-trips
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: canonical json: %w", err)
	}
	return json.Marshal(doc)
}
