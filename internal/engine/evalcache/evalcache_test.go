package evalcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

func TestGetMemoizes(t *testing.T) {
	var evals atomic.Int64
	c := NewCache(4, func(s sched.Schedule) (int, error) {
		evals.Add(1)
		return s[0] * 10, nil
	})
	s := sched.Schedule{3, 1}
	v, executed, err := c.Get(s)
	if err != nil || v != 30 || !executed {
		t.Fatalf("first get: v=%d executed=%v err=%v", v, executed, err)
	}
	v, executed, err = c.Get(s)
	if err != nil || v != 30 || executed {
		t.Fatalf("second get: v=%d executed=%v err=%v", v, executed, err)
	}
	if n := evals.Load(); n != 1 {
		t.Errorf("eval ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.HitRate() != 0.5 || st.Lookups() != 2 {
		t.Errorf("hit rate %v lookups %d", st.HitRate(), st.Lookups())
	}
}

func TestConcurrentGetsCoalesce(t *testing.T) {
	var evals atomic.Int64
	gate := make(chan struct{})
	c := NewCache(0, func(s sched.Schedule) (string, error) {
		evals.Add(1)
		<-gate // hold the evaluating requester until another one waits
		return s.Key(), nil
	})
	p := sched.Schedule{2, 2, 2}
	const workers = 32
	var wg sync.WaitGroup
	executions := make([]bool, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, executed, err := c.Get(p)
			if err != nil || v != "(2, 2, 2)" {
				t.Errorf("worker %d: v=%q err=%v", i, v, err)
			}
			executions[i] = executed
		}(i)
	}
	// Release the evaluation only once a requester has found the key
	// pending and made its wait channel, so the waiter path always runs.
	mk, err := p.MemKey()
	if err != nil {
		t.Fatal(err)
	}
	sh := c.shardFor(mk)
	deadline := time.Now().Add(10 * time.Second)
	for waiting := false; !waiting; {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatal("no requester ever waited on the pending key")
		}
		runtime.Gosched()
		sh.mu.Lock()
		waiting = sh.side[mk].wait != nil
		sh.mu.Unlock()
	}
	close(gate)
	wg.Wait()
	if n := evals.Load(); n != 1 {
		t.Errorf("eval ran %d times under contention, want 1", n)
	}
	executed := 0
	for _, e := range executions {
		if e {
			executed++
		}
	}
	if executed != 1 {
		t.Errorf("%d workers report executing the eval, want exactly 1", executed)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", st, workers-1)
	}
}

func TestErrorsAreMemoized(t *testing.T) {
	var evals atomic.Int64
	boom := errors.New("boom")
	c := NewCache(2, func(s sched.Schedule) (int, error) {
		evals.Add(1)
		return 0, boom
	})
	for i := 0; i < 3; i++ {
		if _, _, err := c.Get(sched.Schedule{1}); !errors.Is(err, boom) {
			t.Fatalf("get %d: err = %v", i, err)
		}
	}
	if n := evals.Load(); n != 1 {
		t.Errorf("failing eval ran %d times, want 1", n)
	}
}

func TestPanickingEvalDoesNotWedgeWaiters(t *testing.T) {
	c := NewCache(2, func(s sched.Schedule) (int, error) {
		panic("boom")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the executing caller")
			}
		}()
		c.Get(sched.Schedule{1, 1})
	}()
	// A later requester must not block forever; it gets a memoized error.
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get(sched.Schedule{1, 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("waiter after panic got nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter wedged on panicked entry")
	}
}

func TestLenCountsDistinctKeys(t *testing.T) {
	c := NewCache(8, func(s sched.Schedule) (int, error) { return 0, nil })
	for i := 1; i <= 5; i++ {
		for rep := 0; rep < 3; rep++ {
			if _, _, err := c.Get(sched.Schedule{i, 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Len() != 5 {
		t.Errorf("len = %d, want 5", c.Len())
	}
}

func TestManyKeysAcrossShards(t *testing.T) {
	var evals atomic.Int64
	c := NewCache(16, func(s sched.Schedule) (string, error) {
		evals.Add(1)
		return s.Key(), nil
	})
	const keys = 200
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				s := sched.Schedule{i%10 + 1, i/10 + 1}
				v, _, err := c.Get(s)
				if err != nil || v != s.Key() {
					t.Errorf("key %v: v=%q err=%v", s, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	distinct := 0
	seen := map[string]bool{}
	for i := 0; i < keys; i++ {
		k := fmt.Sprint(i%10+1, i/10+1)
		if !seen[k] {
			seen[k] = true
			distinct++
		}
	}
	if int(evals.Load()) != distinct || c.Len() != distinct {
		t.Errorf("evals=%d len=%d, want %d distinct", evals.Load(), c.Len(), distinct)
	}
}
