package cataero

import (
	"context"
	"runtime"

	"cataero/internal/core"
)

// The session's shared pool has two layers, both sized once per session:
//
//   - Admission (this file): a FIFO ticket queue of WithWorkers capacity
//     (default GOMAXPROCS) bounding how many submitted runs solve
//     concurrently. Submit always returns immediately; a run's queue
//     position is taken synchronously at submission, so runs beyond the
//     bound wait in RunQueued state and start in submission order as
//     slots free.
//
//   - Compute workers (core.Stack.Pool): one GOMAXPROCS-sized fvm worker
//     pool shared by every finite-volume solve in the session. Before this
//     existed each fvm solver spawned a private NumCPU-wide pool, so a
//     batch of K concurrent NS solves parked K*(NumCPU-1) goroutines and
//     oversubscribed the machine; now the resident worker count is fixed
//     regardless of batch width, and sweeps that find all shared workers
//     busy run inline on their own slot's goroutine instead of queueing.

// ticket is one run's place in the admission queue; it is granted (sent to)
// exactly once, when a slot is handed to the run.
type ticket chan struct{}

// enqueue takes a queue position NOW — called synchronously from Submit, so
// submission order is admission order. A free slot is granted immediately.
func (s *Session) enqueue() ticket {
	t := make(ticket, 1)
	s.admitMu.Lock()
	if s.workers == 0 {
		// Zero-value Session (constructed without NewSession): adopt the
		// default admission width and a model stack lazily so legacy
		// `var s Session` callers keep working instead of queueing forever.
		// The run goroutine that reads the stack starts after this returns.
		s.workers = runtime.GOMAXPROCS(0)
		s.admitFree = s.workers
		s.stack = core.NewStack()
	}
	if s.admitFree > 0 && len(s.admitQueue) == 0 {
		s.admitFree--
		t <- struct{}{}
	} else {
		s.admitQueue = append(s.admitQueue, t)
	}
	s.admitMu.Unlock()
	return t
}

// await blocks until the ticket is granted or the context is done. On
// cancellation the ticket is withdrawn from the queue; if a slot was
// granted concurrently it is handed straight back.
func (s *Session) await(ctx context.Context, t ticket) error {
	select {
	case <-t:
		return nil
	case <-ctx.Done():
	}
	s.admitMu.Lock()
	for i, q := range s.admitQueue {
		if q == t {
			s.admitQueue = append(s.admitQueue[:i], s.admitQueue[i+1:]...)
			s.admitMu.Unlock()
			return ctx.Err()
		}
	}
	s.admitMu.Unlock()
	// Not in the queue: the slot was granted between Done and the lock —
	// consume the (already buffered) grant and release it for the next run.
	<-t
	s.release()
	return ctx.Err()
}

// release returns a slot: straight to the queue head when runs are waiting,
// back to the free count otherwise.
func (s *Session) release() {
	s.admitMu.Lock()
	if len(s.admitQueue) > 0 {
		t := s.admitQueue[0]
		s.admitQueue = s.admitQueue[1:]
		t <- struct{}{}
	} else {
		s.admitFree++
	}
	s.admitMu.Unlock()
}
