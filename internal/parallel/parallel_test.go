package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewExecutorDefaults(t *testing.T) {
	if got := NewExecutor(0).Capacity(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("capacity %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewExecutor(-3).Capacity(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("capacity %d for negative request", got)
	}
	if got := NewExecutor(7).Capacity(); got != 7 {
		t.Fatalf("capacity %d, want 7", got)
	}
}

func TestDefaultIsProcessWide(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default returned distinct executors")
	}
}

func TestAcquireClampsToCapacity(t *testing.T) {
	e := NewExecutor(3)
	if got := e.Acquire(10); got != 3 {
		t.Fatalf("Acquire(10) granted %d, want clamp to 3", got)
	}
	if e.TryAcquire(1) {
		t.Fatal("TryAcquire succeeded with all tokens held")
	}
	e.Release(3)
	if !e.TryAcquire(1) {
		t.Fatal("TryAcquire failed after full release")
	}
	e.Release(1)
}

func TestTryAcquireNeverBlocks(t *testing.T) {
	e := NewExecutor(2)
	if !e.TryAcquire(2) {
		t.Fatal("TryAcquire(2) on idle executor failed")
	}
	if e.TryAcquire(1) {
		t.Fatal("TryAcquire(1) succeeded beyond capacity")
	}
	if e.TryAcquire(5) {
		t.Fatal("TryAcquire wider than capacity must fail, not clamp")
	}
	e.Release(2)
}

func TestReleaseOverflowPanics(t *testing.T) {
	e := NewExecutor(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of unheld tokens did not panic")
		}
	}()
	e.Release(1)
}

// TestAcquireFIFOFairness pins the waiter-queue ordering: a small request
// arriving after a large one must not overtake it.
func TestAcquireFIFOFairness(t *testing.T) {
	e := NewExecutor(4)
	e.Acquire(4) // drain

	var order []string
	var mu sync.Mutex
	record := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
	}

	bigQueued := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		close(bigQueued)
		e.Acquire(3)
		record("big")
		e.Release(3)
	}()
	<-bigQueued
	// Give the big waiter time to enqueue before the small one arrives.
	waitUntil(t, "the big waiter to queue", func() bool { return e.Stats().QueueDepth == 1 })
	go func() {
		defer wg.Done()
		e.Acquire(1)
		record("small")
		e.Release(1)
	}()
	waitUntil(t, "both waiters to queue", func() bool { return e.Stats().QueueDepth == 2 })

	// Release one token: enough for "small" but FIFO demands "big" waits
	// first, so nothing may be granted yet. Release decides grants
	// synchronously under the executor's lock, so both waiters must still
	// be queued when it returns.
	e.Release(1)
	if depth := e.Stats().QueueDepth; depth != 2 {
		t.Fatalf("a waiter was granted with only 1 token free (queue depth %d, want 2)", depth)
	}
	// Free exactly enough for "big" (3 of 4 tokens available): only the
	// head of the queue may be granted, and "small" must still wait.
	e.Release(2)
	waitUntil(t, "the first grant", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) >= 1
	})
	mu.Lock()
	first := order[0]
	mu.Unlock()
	if first != "big" {
		t.Fatalf("first grant %q, want the FIFO head \"big\"", first)
	}
	e.Release(1)
	wg.Wait()
	if order[1] != "small" {
		t.Fatalf("grant order %v, want [big small]", order)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	e := NewExecutor(4)
	for _, n := range []int{0, 1, 7, 100} {
		seen := make([]atomic.Int64, n)
		e.ForEach(n, 0, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d executed %d times", n, i, got)
			}
		}
	}
	if st := e.Stats(); st.InFlight != 0 {
		t.Fatalf("tokens leaked: %d in flight after ForEach", st.InFlight)
	}
}

func TestForEachLimitBoundsConcurrency(t *testing.T) {
	e := NewExecutor(8)
	var cur, peak atomic.Int64
	e.ForEach(64, 2, func(i int) {
		if c := cur.Add(1); c > peak.Load() {
			peak.Store(c)
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
	})
	if p := peak.Load(); p > 2 {
		t.Fatalf("ForEach limit 2 reached concurrency %d", p)
	}
}

// TestForEachNestedCompletes is the deadlock-freedom contract: deeply
// nested ForEach calls over one small executor must finish because every
// caller makes progress inline, with or without tokens.
func TestForEachNestedCompletes(t *testing.T) {
	e := NewExecutor(2)
	var leaves atomic.Int64
	e.ForEach(4, 0, func(i int) {
		e.ForEach(4, 0, func(j int) {
			e.ForEach(4, 0, func(k int) {
				leaves.Add(1)
			})
		})
	})
	if got := leaves.Load(); got != 64 {
		t.Fatalf("nested leaves %d, want 64", got)
	}
	if st := e.Stats(); st.InFlight != 0 {
		t.Fatalf("tokens leaked after nesting: %+v", st)
	}
}

// TestForEachZeroTokensRunsInline pins that ForEach needs no tokens at all.
func TestForEachZeroTokensRunsInline(t *testing.T) {
	e := NewExecutor(1)
	e.Acquire(1) // starve the executor
	defer e.Release(1)
	done := 0
	e.ForEach(10, 0, func(i int) { done++ }) // inline: no data race possible
	if done != 10 {
		t.Fatalf("inline ForEach ran %d of 10 iterations", done)
	}
}

func TestStatsCounters(t *testing.T) {
	e := NewExecutor(2)
	e.Acquire(2)
	if e.TryAcquire(1) {
		t.Fatal("TryAcquire succeeded at capacity")
	}
	st := e.Stats()
	if st.InFlight != 2 || st.PeakInFlight != 2 || st.Denied != 1 || st.Acquired != 1 {
		t.Fatalf("stats %+v", st)
	}
	released := make(chan struct{})
	go func() {
		e.Acquire(1)
		close(released)
	}()
	waitUntil(t, "the waiter to queue", func() bool { return e.Stats().QueueDepth == 1 })
	e.Release(2)
	<-released
	e.Release(1)
	st = e.Stats()
	if st.InFlight != 0 || st.QueueDepth != 0 || st.Waited != 1 {
		t.Fatalf("final stats %+v", st)
	}
}

// TestExecutorStress hammers one executor from many goroutines mixing
// blocking, non-blocking, and ForEach traffic; run under -race in CI.
func TestExecutorStress(t *testing.T) {
	e := NewExecutor(4)
	var wg sync.WaitGroup
	var sum atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				switch g % 3 {
				case 0:
					n := e.Acquire(1 + g%4)
					sum.Add(1)
					e.Release(n)
				case 1:
					if e.TryAcquire(1) {
						sum.Add(1)
						e.Release(1)
					}
				default:
					e.ForEach(8, 3, func(i int) { sum.Add(1) })
				}
			}
		}(g)
	}
	wg.Wait()
	st := e.Stats()
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("stress left executor dirty: %+v", st)
	}
	if sum.Load() == 0 {
		t.Fatal("no work executed")
	}
}

// waitUntil polls cond, yielding the processor between polls instead of
// sleeping, and fails the test if cond does not hold within 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}
