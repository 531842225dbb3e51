package serve

import (
	"context"
	"time"

	"cataero"
)

// This file is the server's crash-safety lifecycle: Drain stops the service
// gracefully — new admissions get 503 + Retry-After, in-flight runs are
// checkpointed (via their configured sinks) and cancelled — and Recover,
// called on the next start over the same ledger, re-submits every
// interrupted run from its stored checkpoint. Together they make `catsim
// serve` restartable mid-campaign: a SIGTERM (or a crash, which skips Drain
// but keeps the periodic checkpoints) costs at most CheckpointEvery steps
// per in-flight solve.

// Drain stops accepting new runs and winds down the in-flight ones: each
// run's context is cancelled, which makes its marching loop emit a final
// checkpoint (when checkpointing is configured) before returning. Drain
// blocks until every in-flight run has finished or ctx expires — pass a
// context with the drain deadline. Safe to call once; the server cannot be
// un-drained.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	inflight := make([]*srvRun, 0, len(s.byKey))
	for _, sr := range s.byKey {
		inflight = append(inflight, sr)
	}
	s.mu.Unlock()
	s.logf("serve: draining, %d in-flight run(s)", len(inflight))
	for _, sr := range inflight {
		sr.cancel()
	}
	for _, sr := range inflight {
		select {
		case <-sr.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Recover re-submits every interrupted run found in the ledger: a stored
// partial-run checkpoint whose result has not landed marks a solve a
// previous process left unfinished. Each is re-admitted (quota-free, normal
// lane) and resumes from its checkpoint instead of step 0. Checkpoints
// whose result already exists are stale and dropped. Returns how many runs
// were re-submitted. Call once, after New, before serving traffic.
func (s *Server) Recover() (int, error) {
	if s.cfg.Ledger == nil {
		return 0, nil
	}
	cks, err := s.cfg.Ledger.Checkpoints()
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, ck := range cks {
		if e, err := s.cfg.Ledger.Get(ck.Key); err == nil && e != nil {
			// The run finished; the checkpoint just outlived it.
			_ = s.cfg.Ledger.DeleteCheckpoint(ck.Key)
			continue
		}
		if len(ck.Spec) == 0 {
			continue
		}
		var p cataero.Problem
		if err := p.UnmarshalJSON(ck.Spec); err != nil {
			s.logf("serve: recover %s: bad spec: %v", ck.Key, err)
			continue
		}
		job, err := Prepare(s.cfg.Session, p)
		if err != nil {
			s.logf("serve: recover %s: %v", ck.Key, err)
			continue
		}
		if job.Key != ck.Key {
			// The spec no longer hashes to the stored key (e.g. a toolkit
			// upgrade changed canonicalization); resuming would file the
			// result under the wrong address.
			s.logf("serve: recover %s: spec re-keys to %s; dropping", ck.Key, job.Key)
			_ = s.cfg.Ledger.DeleteCheckpoint(ck.Key)
			continue
		}
		if sr, coalesced, _ := s.admit(job, 0, ""); sr != nil && !coalesced {
			resumed++
			s.logf("serve: recovered %s from checkpoint at step %d (created %s)",
				ck.Key, ck.Step, ck.Created.Format(time.RFC3339))
		}
	}
	return resumed, nil
}
