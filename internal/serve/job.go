package serve

import (
	"encoding/json"
	"time"

	"cataero"
	"cataero/internal/ledger"
)

// This file is the keyed-solve protocol that files a run in the ledger,
// shared by the server (execute, Recover) and `catsim run -ledger`: both
// key a case, resume and write its checkpoints, and store its result the
// same way, so either can finish a solve the other began.

// Job is one case keyed for the run ledger.
type Job struct {
	// Problem is the case as the session solves it (Session.Normalize).
	Problem cataero.Problem
	// Key is the content address: the ledger checksum of Spec, equal to
	// cataero.CaseKey(Problem).
	Key string
	// Spec is the canonical case JSON, stored with the result and with
	// every checkpoint so a restarted server can re-submit the run.
	Spec json.RawMessage
}

// Prepare normalizes p against the session and keys it, canonicalizing
// once: the key is the digest of the spec the job stores.
func Prepare(s *cataero.Session, p cataero.Problem) (Job, error) {
	np, err := s.Normalize(p)
	if err != nil {
		return Job{}, err
	}
	spec, err := cataero.CanonicalJSON(np)
	if err != nil {
		return Job{}, err
	}
	return Job{Problem: np, Key: ledger.Checksum(spec), Spec: spec}, nil
}

// Resumable returns the job's problem wired to the ledger's partial-run
// store. A valid checkpoint stored under the key is always resumed: a
// resumed march lands on the cold solve's artifact byte for byte, so
// resuming only saves work. The cadence sets only how often new
// checkpoints are written: the case's own checkpoint_every, else every
// (<= 0 writes none). A checkpoint that fails to decode, encode or persist
// is logged and never fails the run.
func (j Job) Resumable(l *ledger.Ledger, every int, logf func(format string, args ...any)) cataero.Problem {
	p := j.Problem
	if p.CheckpointEvery == 0 && every > 0 {
		p.CheckpointEvery = every
	}
	if p.CheckpointEvery > 0 {
		p.CheckpointSink = func(cp *cataero.Checkpoint) {
			data, err := cp.AppendBinary(nil)
			if err == nil {
				err = l.PutCheckpoint(&ledger.Checkpoint{
					Key: j.Key, Spec: j.Spec, Step: cp.Step,
					Version: cataero.Version, Data: data,
				})
			}
			if err != nil {
				logf("checkpoint %s: %v", j.Key, err)
			}
		}
	}
	if lc, err := l.GetCheckpoint(j.Key); err == nil && lc != nil {
		if cp, err := cataero.DecodeCheckpoint(lc.Data); err != nil {
			logf("checkpoint %s unreadable (%v); solving from step 0", j.Key, err)
		} else {
			p.Restore = cp
			logf("resuming %s from checkpoint at step %d", j.Key, lc.Step)
		}
	}
	return p
}

// Store files a finished solve's result and the run's provenance under the
// job's key; the entry supersedes the key's checkpoint (see ledger.Put).
func (j Job) Store(l *ledger.Ledger, result []byte, snap cataero.Snapshot) error {
	e := &ledger.Entry{
		Key: j.Key, Spec: j.Spec, Result: result,
		Solver: snap.Solver, Version: cataero.Version,
		ElapsedMS: float64(snap.Elapsed) / float64(time.Millisecond),
	}
	if data, err := json.Marshal(snap); err == nil {
		e.Snapshot = data
	}
	return l.Put(e)
}
