package fvm

import (
	"runtime"
	"sync"
)

// Pool is a persistent set of worker goroutines for the per-step parallel
// sweeps. A Pool is safe for concurrent use by many solvers at once: sweep
// chunks are handed to a worker only when one is parked waiting (help-first
// semantics — see sweep), so solvers sharing one pool can never
// deadlock, and the resident goroutine count stays fixed no matter how many
// solves run concurrently. Sessions create one GOMAXPROCS-sized pool and
// thread it through every finite-volume solve (Options.Pool); a solver
// built without a shared pool owns a private one and releases it on Close.
type Pool struct {
	workers int
	tasks   chan poolTask
	once    sync.Once
}

// poolTask is one contiguous index range of a parallel sweep.
type poolTask struct {
	ci     int // chunk ordinal within the sweep
	lo, hi int
	run    func(ci, lo, hi int)
	wg     *sync.WaitGroup
}

// NewPool builds a pool with the given worker count; workers < 1 sizes the
// pool to GOMAXPROCS. The pool parks workers-1 goroutines (the goroutine
// calling into the pool always participates in its own sweep). The
// goroutines hold only the task channel, never the Pool itself, so an
// abandoned pool is reclaimed by its finalizer; call Close to release it
// deterministically.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan poolTask)
		for w := 0; w < workers-1; w++ {
			go poolWorker(p.tasks)
		}
		runtime.SetFinalizer(p, (*Pool).Close)
	}
	return p
}

func poolWorker(tasks <-chan poolTask) {
	for t := range tasks {
		t.run(t.ci, t.lo, t.hi)
		t.wg.Done()
	}
}

// Close releases the pool's goroutines. No sweep may be in flight or issued
// after Close; calling Close more than once is safe.
func (p *Pool) Close() {
	p.once.Do(func() {
		runtime.SetFinalizer(p, nil)
		if p.tasks != nil {
			close(p.tasks)
		}
	})
}

// sweep splits [0, n) into one range per worker and executes run on each,
// passing the chunk ordinal ci (0 <= ci < chunkCount(n)) so reductions can
// write per-chunk scratch slots without re-deriving the split. A chunk is
// handed off only when a worker is parked ready to take it (non-blocking
// send); otherwise the caller runs the chunk inline. Under a shared pool
// this is what makes concurrent solves safe: a sweep never waits on workers
// occupied by other solves — it degrades to inline execution on its own
// goroutine instead of queueing behind them. The caller supplies the range
// closure and the WaitGroup to reuse across sweeps, so a steady-state sweep
// with a prebuilt closure (e.g. a method value stored on the solver) costs
// zero heap allocations. The WaitGroup must not be shared by concurrent
// sweeps.
func (p *Pool) sweep(n int, wg *sync.WaitGroup, run func(ci, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.tasks == nil || n == 1 {
		run(0, 0, n)
		return
	}
	chunk := p.chunkSize(n)
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		select {
		case p.tasks <- poolTask{ci: lo / chunk, lo: lo, hi: hi, run: run, wg: wg}:
		default:
			run(lo/chunk, lo, hi)
			wg.Done()
		}
	}
	run(0, 0, chunk)
	wg.Wait()
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
