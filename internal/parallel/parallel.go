// Package parallel is the process-wide concurrency governor: one bounded,
// weighted-token executor that every parallel layer of the pipeline — the
// scenario sweep (internal/engine), the exact searcher
// (internal/search), the per-application design fan-out (internal/core),
// the PSO evaluation pool (internal/pso), and the HTTP design batches
// (cmd/served) — draws from, instead of each layer running its own
// sync.WaitGroup+channel pool.
//
// Before the governor, parallelism was nested and unbounded in aggregate:
// sweep workers × per-scenario exhaustive workers × per-app design
// goroutines × PSO goroutine-per-particle could oversubscribe the scheduler
// by orders of magnitude exactly when the process was busiest. The governor
// caps the number of *computing* goroutines at its capacity (default
// GOMAXPROCS) while keeping every layer's coordination goroutines free, so
// the box saturates without thrashing.
//
// # Deadlock freedom under nesting
//
// The one rule that makes arbitrary nesting safe: a layer's own goroutine
// never blocks waiting for a token in order to make progress. ForEach — the
// work-distribution primitive every internal layer uses — always runs
// iterations on the calling goroutine and only adds helper goroutines for
// tokens TryAcquire can grant immediately. Tokens are therefore pure
// accelerators: with zero tokens available every ForEach degrades to an
// inline serial loop and still completes. Blocking Acquire exists for
// top-level admission control (weighted by request size) and must not be
// called while holding tokens.
//
// # Determinism
//
// The governor never changes results: every consumer writes into
// index-addressed slots and reduces in index order, so any token
// availability — including none — yields bit-identical outputs. The
// engine's parallel-equals-serial sweep tests and the searchers' worker
// -count equivalence tests pin this.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor is a bounded, weighted-token concurrency governor. The zero
// value is not usable; construct with NewExecutor or use the process-wide
// Default.
type Executor struct {
	capacity int

	mu      sync.Mutex
	held    int // tokens currently held
	waiters waiterList
	peak    int

	acquired atomic.Int64 // granted Acquire/TryAcquire calls
	waited   atomic.Int64 // Acquire calls that had to queue
	denied   atomic.Int64 // TryAcquire calls that returned false
}

// waiter is one queued Acquire call. Waiters are served strictly in arrival
// order: a later, smaller request never overtakes an earlier, larger one
// (no starvation of heavy requests).
type waiter struct {
	need  int
	ready chan struct{}
	next  *waiter
}

// waiterList is a FIFO queue of blocked Acquire calls.
type waiterList struct {
	head, tail *waiter
	n          int
}

func (l *waiterList) push(w *waiter) {
	if l.tail == nil {
		l.head, l.tail = w, w
	} else {
		l.tail.next = w
		l.tail = w
	}
	l.n++
}

func (l *waiterList) pop() *waiter {
	w := l.head
	l.head = w.next
	if l.head == nil {
		l.tail = nil
	}
	w.next = nil
	l.n--
	return w
}

// NewExecutor returns an executor with the given token capacity;
// capacity <= 0 selects runtime.GOMAXPROCS(0).
func NewExecutor(capacity int) *Executor {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &Executor{capacity: capacity}
}

var (
	defaultOnce sync.Once
	defaultExec *Executor
)

// Default returns the process-wide executor (capacity GOMAXPROCS at first
// use). All internal pipeline layers draw from it.
func Default() *Executor {
	defaultOnce.Do(func() { defaultExec = NewExecutor(0) })
	return defaultExec
}

// Capacity returns the executor's token capacity.
func (e *Executor) Capacity() int { return e.capacity }

// Acquire blocks until n tokens are available and takes them, returning the
// granted count: n clamped to the capacity, so a request wider than the
// whole executor degrades to "the whole executor" instead of deadlocking.
// Waiters are served in FIFO order. Release the same count when done.
//
// Acquire is for top-level admission control: cmd/served's singleflight
// evaluators (cold design records, cold table renders) and its sweep
// handler hold one token while they compute, since that goroutine works
// inline — excess cold requests queue FIFO instead of piling onto the box,
// while cache hits never touch the queue. Acquire must be the first thing
// such a leader does, before it can hold anything another token holder
// might wait on. Compute layers inside the pipeline must use ForEach or
// TryAcquire instead: blocking on tokens while holding tokens, or while a
// parent layer waits on this goroutine, can stall the process.
func (e *Executor) Acquire(n int) int {
	if n < 1 {
		n = 1
	}
	if n > e.capacity {
		n = e.capacity
	}
	e.mu.Lock()
	if e.waiters.n == 0 && e.held+n <= e.capacity {
		e.grantLocked(n)
		e.mu.Unlock()
		return n
	}
	w := &waiter{need: n, ready: make(chan struct{})}
	e.waiters.push(w)
	e.mu.Unlock()
	e.waited.Add(1)
	<-w.ready // grantLocked already accounted the tokens
	return n
}

// TryAcquire takes n tokens if they are available right now without
// overtaking queued Acquire waiters, reporting whether it got them. It
// never blocks and never allocates, which makes it safe for steady-state
// hot loops (the PSO pool calls it once per evaluation round).
func (e *Executor) TryAcquire(n int) bool {
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	if n > e.capacity || e.waiters.n > 0 || e.held+n > e.capacity {
		e.mu.Unlock()
		e.denied.Add(1)
		return false
	}
	e.grantLocked(n)
	e.mu.Unlock()
	return true
}

// grantLocked takes n tokens; the caller holds e.mu.
func (e *Executor) grantLocked(n int) {
	e.held += n
	if e.held > e.peak {
		e.peak = e.held
	}
	e.acquired.Add(1)
}

// Release returns n tokens and hands them to queued waiters in FIFO order.
// n must match a prior grant; releasing more than held panics, catching
// accounting bugs loudly instead of silently inflating capacity.
func (e *Executor) Release(n int) {
	if n < 1 {
		n = 1
	}
	if n > e.capacity {
		n = e.capacity
	}
	e.mu.Lock()
	if n > e.held {
		e.mu.Unlock()
		panic(fmt.Sprintf("parallel: Release(%d) exceeds %d held tokens", n, e.held))
	}
	e.held -= n
	for e.waiters.n > 0 && e.held+e.waiters.head.need <= e.capacity {
		w := e.waiters.pop()
		e.grantLocked(w.need)
		close(w.ready)
	}
	e.mu.Unlock()
}

// ForEach runs fn(i) for every i in [0, n), distributing iterations over
// the executor's spare capacity. Iterations are claimed from an atomic
// counter, so fn must be safe for concurrent calls and should write results
// into index-addressed slots; reducing those slots in index order afterward
// is what keeps parallel runs bit-identical to serial ones.
//
// The calling goroutine always executes iterations itself, so completion
// never depends on token availability and nested ForEach calls cannot
// deadlock; up to limit-1 helper goroutines join for whatever tokens
// TryAcquire grants at entry. limit <= 0 means "executor capacity". Each
// helper holds one token for the duration of its work and releases it on
// exit.
func (e *Executor) ForEach(n, limit int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	var next atomic.Int64
	work := func(f func(int)) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	for h := 0; h < limit-1 && e.TryAcquire(1); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.Release(1)
			work(fn)
		}()
	}
	work(fn)
	wg.Wait()
}

// Stats is a point-in-time snapshot of the executor's gauges and counters;
// cmd/served exposes it on /statsz.
type Stats struct {
	Capacity     int   // token capacity
	InFlight     int   // tokens currently held
	QueueDepth   int   // Acquire calls currently waiting
	PeakInFlight int   // high-water mark of InFlight
	Acquired     int64 // grants (Acquire completions + successful TryAcquires)
	Waited       int64 // Acquire calls that had to queue before being granted
	Denied       int64 // TryAcquire calls that found no spare capacity
}

// Stats snapshots the executor counters.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		Capacity:     e.capacity,
		InFlight:     e.held,
		QueueDepth:   e.waiters.n,
		PeakInFlight: e.peak,
	}
	e.mu.Unlock()
	s.Acquired = e.acquired.Load()
	s.Waited = e.waited.Load()
	s.Denied = e.denied.Load()
	return s
}
