package fvm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long an idle worker keeps looking for published sweeps
// before it parks. It spans the serial gaps between the sweeps of one step
// and between steps, so a worker that helped one sweep is still running
// when the next is published.
const spinWindow = 40 * time.Microsecond

// Pool is a persistent set of worker goroutines for the per-step parallel
// sweeps. A Pool is safe for concurrent use by many solvers at once. Chunks
// are claimed, never handed over: a sweep publishes its descriptor, the
// calling goroutine and any worker that is running claim chunk indices from
// the descriptor's one atomic counter, and the caller runs every chunk
// nobody else has claimed (help-first semantics — see sweep). A sweep
// therefore never waits on a worker that is busy elsewhere or has no
// processor to run on, so solvers sharing one pool can never deadlock, and
// the resident goroutine count stays fixed no matter how many solves run
// concurrently. Sessions create one GOMAXPROCS-sized pool and thread it
// through every finite-volume solve (Options.Pool); a solver built without
// a shared pool owns a private one and releases it on Close.
type Pool struct {
	workers int
	crew    *crew // nil for a one-worker pool: every sweep runs inline
	once    sync.Once
}

// crew is the state a pool's worker goroutines share: the published sweeps
// and the parking lot. Workers hold only the crew, never the Pool, so an
// abandoned pool is reclaimed by its finalizer, and a sweep leaves its slot
// before it returns, so no worker keeps a finished sweep's closure alive.
type crew struct {
	open   []atomic.Pointer[sweepTask] // published sweeps; nil slots are free
	parked atomic.Int32                // workers parked on wake
	// wake carries one token per wake-up, buffered to the worker count so a
	// sweep never blocks on it: a full buffer already wakes every worker.
	wake chan struct{}
}

// sweepTask is a sweep's descriptor, owned by one solver and reused by its
// every sweep (Solver.sweepTask), so publishing a sweep allocates nothing.
// claim packs the sweep's epoch (high 32 bits) over its count of unclaimed
// chunks (low 32 bits). A claim is a compare-and-swap that takes chunk
// left-1; the epoch makes one computed from a word read during an earlier
// sweep fail, even where the new sweep's count happens to match. n, chunk
// and run are written before the epoch is published and read only by a
// goroutine that has claimed a chunk of that epoch; the owner does not
// rewrite them until done has counted every chunk.
type sweepTask struct {
	claim    atomic.Uint64
	done     atomic.Int32
	n, chunk int
	run      func(ci, lo, hi int)
}

// NewPool builds a pool with the given worker count; workers < 1 sizes the
// pool to GOMAXPROCS. The pool runs workers-1 goroutines (the goroutine
// calling into the pool always works its own sweep) and none at all for a
// one-worker pool. Call Close to release the goroutines deterministically;
// an abandoned pool releases them from its finalizer.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		c := &crew{open: make([]atomic.Pointer[sweepTask], workers), wake: make(chan struct{}, workers-1)}
		for w := 1; w < workers; w++ {
			go c.work()
		}
		p.crew = c
		runtime.SetFinalizer(p, (*Pool).Close)
	}
	return p
}

// work is one worker goroutine: parked until a sweep is published, then
// claiming chunks of any published sweep until none has turned up for
// spinWindow, then parked again. It returns once the pool is closed.
func (c *crew) work() {
	for c.park() {
		for idle := time.Now(); time.Since(idle) < spinWindow; {
			if c.help() {
				idle = time.Now()
			} else {
				runtime.Gosched()
			}
		}
	}
}

// help claims and runs one chunk of a published sweep, reporting whether it
// found one.
func (c *crew) help() bool {
	for i := range c.open {
		if t := c.open[i].Load(); t != nil && t.runOne() {
			return true
		}
	}
	return false
}

// park blocks until a sweep may be waiting or the pool is closed, and
// reports false once it is closed. The parked count is raised before the
// slots are rechecked, so a sweep published in between either is seen here
// or sees the count and sends a wake token.
func (c *crew) park() bool {
	c.parked.Add(1)
	defer c.parked.Add(-1)
	for i := range c.open {
		if t := c.open[i].Load(); t != nil && uint32(t.claim.Load()) > 0 {
			return true
		}
	}
	_, ok := <-c.wake
	return ok
}

// Close releases the pool's goroutines. No sweep may be in flight or issued
// after Close; calling Close more than once is safe.
func (p *Pool) Close() {
	p.once.Do(func() {
		runtime.SetFinalizer(p, nil)
		if p.crew != nil {
			close(p.crew.wake)
		}
	})
}

// sweep splits [0, n) into chunkCount(n) ranges of chunkSize(n) indices and
// executes run on each, passing the chunk ordinal ci (0 <= ci < chunkCount(n))
// so reductions can write per-chunk scratch slots without re-deriving the
// split. The sweep publishes t, wakes a parked worker if there is one, and
// claims and runs chunks itself until none is left unclaimed; it then waits
// only for chunks a running worker has already started. Under a shared pool
// this is what makes concurrent solves safe: a sweep never waits on a chunk
// no worker has claimed, so when every worker is busy with other solves it
// degrades to inline execution on its own goroutine instead of queueing
// behind them. When every slot is taken by other sweeps, t is not published
// and the sweep runs inline. The caller supplies the range closure and the
// descriptor to reuse across sweeps, so a steady-state sweep with a
// prebuilt closure (e.g. a method value stored on the solver) costs zero
// heap allocations. The descriptor must not be shared by concurrent sweeps.
func (p *Pool) sweep(n int, t *sweepTask, run func(ci, lo, hi int)) {
	if n <= 0 {
		return
	}
	c := p.crew
	if c == nil || n == 1 {
		run(0, 0, n)
		return
	}
	t.n, t.chunk, t.run = n, p.chunkSize(n), run
	count := p.chunkCount(n)
	t.done.Store(0)
	t.claim.Store((t.claim.Load()>>32+1)<<32 | uint64(count))
	var slot *atomic.Pointer[sweepTask]
	for i := range c.open {
		if c.open[i].CompareAndSwap(nil, t) {
			slot = &c.open[i]
			break
		}
	}
	if slot != nil && c.parked.Load() > 0 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	for t.runOne() {
	}
	if slot != nil {
		slot.Store(nil)
	}
	for spins := 1; t.done.Load() != int32(count); spins++ {
		if spins%64 == 0 {
			runtime.Gosched()
		}
	}
}

// runOne claims the next unclaimed chunk of t's current epoch and runs it,
// reporting false when every chunk is already claimed.
func (t *sweepTask) runOne() bool {
	for {
		s := t.claim.Load()
		left := int(uint32(s))
		if left == 0 {
			return false
		}
		if t.claim.CompareAndSwap(s, s-1) {
			ci := left - 1
			lo := ci * t.chunk
			t.run(ci, lo, min(lo+t.chunk, t.n))
			t.done.Add(1)
			return true
		}
	}
}

// chunkSize returns the per-chunk index count used to split a sweep of n.
func (p *Pool) chunkSize(n int) int {
	w := p.workers
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return (n + w - 1) / w
}

// chunkCount returns how many chunks a sweep of n splits into — the size a
// per-chunk scratch array must have for sweep's ci to index it.
func (p *Pool) chunkCount(n int) int {
	if n <= 0 {
		return 0
	}
	c := p.chunkSize(n)
	return (n + c - 1) / c
}
