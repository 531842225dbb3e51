package cataero

import (
	"context"
	"runtime"

	"cataero/internal/core"
)

// The session's shared pool has two layers, both sized once per session:
//
//   - Admission (this file): one queue with WithWorkers slots (default
//     GOMAXPROCS) bounding how many submitted runs solve concurrently, and
//     three lanes (Problem.Priority) for the runs beyond the bound. Submit
//     always returns immediately; a run's queue position is taken
//     synchronously at submission, and a freed slot goes to the oldest
//     waiting run in the highest non-empty lane, so runs of one lane start
//     in submission order and a high-priority run overtakes queued bulk
//     work without preempting running solves.
//
//   - Compute workers (core.Stack.Pool): one GOMAXPROCS-sized fvm worker
//     pool shared by every finite-volume solve in the session. Before this
//     existed each fvm solver spawned a private NumCPU-wide pool, so a
//     batch of K concurrent NS solves parked K*(NumCPU-1) goroutines and
//     oversubscribed the machine; now the resident worker count is fixed
//     regardless of batch width, and sweeps that find all shared workers
//     busy run inline on their own slot's goroutine instead of queueing.

// numLanes is the number of admission lanes, PriorityLow to PriorityHigh.
const numLanes = int(PriorityHigh-PriorityLow) + 1

// lane maps a priority onto its admission lane: 0 is low, numLanes-1 high.
// Priorities out of range queue in the nearest lane.
func lane(p Priority) int {
	return int(min(max(p, PriorityLow), PriorityHigh) - PriorityLow)
}

// ticket is one run's place in the admission queue; it is granted (sent to)
// exactly once, when a slot is handed to the run.
type ticket chan struct{}

// enqueue takes a queue position in the lane NOW — called synchronously
// from Submit, so within a lane submission order is admission order. A free
// slot is granted immediately: a slot is free only while every lane is
// empty.
func (s *Session) enqueue(lane int) ticket {
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
	if s.admitFree > 0 {
		s.admitFree--
		t <- struct{}{}
	} else {
		s.admitQueue[lane] = append(s.admitQueue[lane], t)
	}
	s.admitMu.Unlock()
	return t
}

// await blocks until the ticket is granted or the context is done. On
// cancellation the ticket is withdrawn from its lane; if a slot was granted
// concurrently it is handed straight on.
func (s *Session) await(ctx context.Context, lane int, t ticket) error {
	select {
	case <-t:
		return nil
	case <-ctx.Done():
	}
	s.admitMu.Lock()
	q := s.admitQueue[lane]
	for i := range q {
		if q[i] == t {
			s.admitQueue[lane] = append(q[:i], q[i+1:]...)
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

// release returns a slot: to the oldest waiter in the highest non-empty
// lane, or back to the free count when no run is waiting.
func (s *Session) release() {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	for l := numLanes - 1; l >= 0; l-- {
		if q := s.admitQueue[l]; len(q) > 0 {
			s.admitQueue[l] = q[1:]
			q[0] <- struct{}{}
			return
		}
	}
	s.admitFree++
}
