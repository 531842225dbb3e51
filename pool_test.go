package cataero

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// queued counts the runs waiting in each admission lane.
func (s *Session) queued() (n [numLanes]int) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	for l, q := range s.admitQueue {
		n[l] = len(q)
	}
	return n
}

// admitInOrder holds the only slot of a one-wide session, queues one waiter
// per priority in the given arrival order, frees the slot and returns the
// order the waiters were admitted in.
func admitInOrder(t *testing.T, arrivals []Priority) []int {
	t.Helper()
	s := NewSession(WithWorkers(1))
	normal := lane(PriorityNormal)
	if err := s.await(context.Background(), normal, s.enqueue(normal)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i, p := range arrivals {
		wg.Add(1)
		tk := s.enqueue(lane(p)) // synchronous, as in Submit: arrival order is fixed
		go func() {
			defer wg.Done()
			if err := s.await(context.Background(), lane(p), tk); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.release()
		}()
	}
	s.release() // free the held slot; the chain drains highest lane first
	wg.Wait()
	return order
}

// TestLaneOrdering: with the one slot held, freed slots go high → normal →
// low regardless of arrival order, and a priority out of range queues in
// the nearest lane instead of indexing past the lanes.
func TestLaneOrdering(t *testing.T) {
	arrivals := []Priority{PriorityLow, Priority(-7), PriorityNormal, PriorityHigh, Priority(9)}
	got := admitInOrder(t, arrivals)
	want := []int{3, 4, 2, 0, 1} // high, 9 (high), normal, low, -7 (low)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("admission order %v, want %v (arrivals %v)", got, want, arrivals)
		}
	}
}

// The lane orders runs and never changes a solve: neither the case file
// nor the canonical JSON (and so the ledger key) carries it.
func TestPriorityNotInCaseOrKey(t *testing.T) {
	p := fastNSProblem()
	hi := p
	hi.Priority = PriorityHigh
	for _, encode := range []func(Problem) ([]byte, error){
		func(p Problem) ([]byte, error) { return json.Marshal(p) },
		CanonicalJSON,
	} {
		a, errA := encode(p)
		b, errB := encode(hi)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("priority changed the encoding: %s (%v) vs %s (%v)", a, errA, b, errB)
		}
	}
}

// TestLaneFIFOWithinLane: same-lane waiters are admitted in arrival order.
func TestLaneFIFOWithinLane(t *testing.T) {
	got := admitInOrder(t, []Priority{PriorityNormal, PriorityNormal, PriorityNormal})
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-lane admission order %v, want FIFO", got)
		}
	}
}

// TestAwaitCancel: a waiter canceled in the queue withdraws from its lane,
// and one whose grant lands together with its cancellation passes the slot
// on: either way no slot leaks and none is counted twice.
func TestAwaitCancel(t *testing.T) {
	s := NewSession(WithWorkers(1))
	normal, high := lane(PriorityNormal), lane(PriorityHigh)
	if err := s.await(context.Background(), normal, s.enqueue(normal)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.await(ctx, high, s.enqueue(high)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled await returned %v", err)
	}
	if q := s.queued(); q != ([numLanes]int{}) {
		t.Fatalf("canceled waiter still queued: %v", q)
	}

	tk := s.enqueue(high)
	s.release() // grants tk, which is canceled too
	if err := s.await(ctx, high, tk); err == nil {
		s.release() // the grant won: give the slot back as a finished run would
	}
	// Exactly one slot is free again: one run is admitted at once, the next
	// waits.
	s.enqueue(normal)
	if q := s.queued(); q != ([numLanes]int{}) {
		t.Fatalf("slot leaked: queue %v after the free slot was taken", q)
	}
	s.enqueue(normal)
	if q := s.queued(); q[normal] != 1 {
		t.Fatalf("queue %v, want one waiter behind the single slot", q)
	}
}

// A run queued behind a blocker reports no elapsed time while it waits, and
// its solve clock starts when it leaves the queue: the queue wait never
// lands in Elapsed (and so never in a ledger entry's elapsed_ms).
func TestElapsedExcludesQueueWait(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solves in short mode")
	}
	s := NewSession(WithWorkers(1))
	blocker := s.Submit(context.Background(), longNSProblem())
	waitState(t, blocker.Snapshot, RunRunning)
	run := s.Submit(context.Background(), fastNSProblem())
	time.Sleep(200 * time.Millisecond)
	if snap := run.Snapshot(); snap.State != RunQueued || snap.Elapsed != 0 {
		t.Fatalf("queued run: state %v, elapsed %v; want queued with 0", snap.State, snap.Elapsed)
	}
	freed := time.Now()
	blocker.Cancel()
	if _, err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	solved := time.Since(freed)
	if e := run.Snapshot().Elapsed; e <= 0 || e > solved {
		t.Fatalf("elapsed %v, want within the %v since the slot freed", e, solved)
	}
}
