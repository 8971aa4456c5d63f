package httpstore

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/resilience"
	"repro/internal/store"
)

// fastOptions returns an Options with millisecond backoff so retry tests
// don't wait out real schedules.
func fastOptions() resilience.Options {
	return resilience.Options{
		Policy: resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
	}
}

// TestGetRetriesTransient500s pins the retry loop: a store endpoint that
// 500s twice and then answers yields a hit, not a miss, with the retries
// counted.
func TestGetRetriesTransient500s(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Put("k", []byte(`{"x":1}`))
	var calls atomic.Int64
	inner := Handler(st)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer hs.Close()

	cl := NewWithOptions(hs.URL, fastOptions())
	data, ok := cl.Get("k")
	if !ok || string(data) != `{"x":1}` {
		t.Fatalf("Get through two 500s: ok=%v data=%s", ok, data)
	}
	if s := cl.Stats(); s.Hits != 1 || s.Corrupt != 0 {
		t.Fatalf("stats %+v", s)
	}
	if rs := cl.Resilience(); rs.Retry.Retries != 2 {
		t.Fatalf("resilience %+v, want 2 retries", rs)
	}
}

// TestPutRetriesThenLands pins the write path: transient 500s on PUT are
// retried until the record lands, with no put error counted.
func TestPutRetriesThenLands(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	inner := Handler(st)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer hs.Close()

	cl := NewWithOptions(hs.URL, fastOptions())
	cl.Put("k", []byte(`{"x":1}`))
	if s := cl.Stats(); s.PutErrors != 0 {
		t.Fatalf("stats %+v", s)
	}
	if data, ok := st.Get("k"); !ok || string(data) != `{"x":1}` {
		t.Fatalf("record did not land: ok=%v data=%s", ok, data)
	}
}

// TestGet404NeverRetries pins the definitive-miss path: a 404 is a healthy
// answer, returned immediately without burning the retry budget or
// touching the breaker.
func TestGet404NeverRetries(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.NotFound(w, r)
	}))
	defer hs.Close()
	cl := NewWithOptions(hs.URL, fastOptions())
	if _, ok := cl.Get("missing"); ok {
		t.Fatal("404 read as a hit")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("404 retried: %d requests", n)
	}
	if cl.Breaker().State() != resilience.Closed {
		t.Fatal("404 tripped the breaker")
	}
	if s := cl.Stats(); s.Corrupt != 0 {
		t.Fatalf("404 counted as corruption: %+v", s)
	}
}

// TestBreakerOpenFailsFastNoStalls is the acceptance pin for degraded
// reads: once sustained failure opens the breaker, Gets return misses
// without any network round-trip — microseconds, not transport timeouts —
// and a fake-clock cooldown plus a healthy coordinator recovers the client
// through the half-open probe.
func TestBreakerOpenFailsFastNoStalls(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Put("k", []byte(`{"x":1}`))
	inner := Handler(st)
	mw := chaos.NewMiddleware(inner, chaos.Config{Seed: 1})
	hs := httptest.NewServer(mw)
	defer hs.Close()

	clk := struct{ t atomic.Int64 }{}
	clk.t.Store(time.Unix(1_000_000, 0).UnixNano())
	now := func() time.Time { return time.Unix(0, clk.t.Load()) }
	br := resilience.NewBreaker(3, 5*time.Second)
	br.SetClock(now)
	cl := NewWithOptions(hs.URL, resilience.Options{
		Policy:  resilience.Policy{MaxAttempts: 1}, // isolate the breaker's behavior
		Breaker: br,
	})

	// Healthy first: a hit flows.
	if _, ok := cl.Get("k"); !ok {
		t.Fatal("healthy Get missed")
	}

	// Blackhole the coordinator: the next ops die on transport errors and
	// open the breaker after 3 consecutive failures.
	mw.Blackhole(1 << 30)
	for i := 0; i < 3; i++ {
		if _, ok := cl.Get("k"); ok {
			t.Fatal("blackholed Get reported a hit")
		}
	}
	if got := br.State(); got != resilience.Open {
		t.Fatalf("breaker %v after 3 transport failures, want open", got)
	}

	// Open breaker: misses are immediate short-circuits. No request reaches
	// the (blackholed) middleware, and the op returns far faster than any
	// transport timeout could.
	before := mw.Stats().Ops
	start := time.Now()
	const shortCircuited = 50
	for i := 0; i < shortCircuited; i++ {
		if _, ok := cl.Get("k"); ok {
			t.Fatal("open-breaker Get reported a hit")
		}
	}
	elapsed := time.Since(start)
	if after := mw.Stats().Ops; after != before {
		t.Fatalf("open breaker still sent %d requests", after-before)
	}
	if avg := elapsed / shortCircuited; avg > 5*time.Millisecond {
		t.Fatalf("open-breaker miss averaged %v, want microseconds", avg)
	}
	if rs := cl.Resilience(); rs.Retry.ShortCircuits != shortCircuited {
		t.Fatalf("resilience %+v, want %d short circuits", rs, shortCircuited)
	}

	// Heal the coordinator and advance the fake clock past the cooldown:
	// the half-open probe goes through and closes the breaker.
	mw.Blackhole(0)
	clk.t.Add(int64(5 * time.Second))
	if data, ok := cl.Get("k"); !ok || string(data) != `{"x":1}` {
		t.Fatalf("post-recovery Get: ok=%v data=%s", ok, data)
	}
	if got := br.State(); got != resilience.Closed {
		t.Fatalf("breaker %v after successful probe, want closed", got)
	}
}

// TestBreakerHalfOpenProbeFailureStaysOpen drives the unhappy probe path
// over a real socket: cooldown elapses, the probe dies on the still-dead
// coordinator, and the breaker re-opens for a fresh cooldown.
func TestBreakerHalfOpenProbeFailureStaysOpen(t *testing.T) {
	hs := httptest.NewServer(Handler(nil))
	hs.Close() // dead from the start

	clk := struct{ t atomic.Int64 }{}
	clk.t.Store(time.Unix(1_000_000, 0).UnixNano())
	br := resilience.NewBreaker(1, time.Second)
	br.SetClock(func() time.Time { return time.Unix(0, clk.t.Load()) })
	cl := NewWithOptions(hs.URL, resilience.Options{
		Policy:  resilience.Policy{MaxAttempts: 1},
		Breaker: br,
	})

	cl.Get("k") // transport failure opens the breaker (threshold 1)
	if br.State() != resilience.Open {
		t.Fatal("not open")
	}
	clk.t.Add(int64(time.Second))
	cl.Get("k") // half-open probe fails against the dead socket
	if br.State() != resilience.Open {
		t.Fatal("failed probe did not re-open")
	}
	gets := cl.Stats().Gets
	cl.Get("k") // still open: short-circuit
	if rs := cl.Resilience(); rs.Retry.ShortCircuits == 0 {
		t.Fatalf("no short circuit after failed probe: %+v (gets %d)", rs, gets)
	}
}

// TestPerOpTimeoutReplacesClientWide pins the deadline shape: a coordinator
// that hangs longer than OpTimeout costs one OpTimeout per attempt, not a
// 30-second client-wide stall, and the hang is retried as transient.
func TestPerOpTimeoutReplacesClientWide(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer hs.Close()

	cl := NewWithOptions(hs.URL, resilience.Options{
		OpTimeout: 20 * time.Millisecond,
		Policy:    resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	start := time.Now()
	_, ok := cl.Get("k")
	elapsed := time.Since(start)
	if ok {
		t.Fatal("hung Get reported a hit")
	}
	if calls.Load() != 2 {
		t.Fatalf("hung Get made %d attempts, want 2 (timeout is per-op, retried)", calls.Load())
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hung Get took %v; per-op deadlines should bound it tightly", elapsed)
	}
}

// TestOperationContextUnaffectedByRetries sanity-checks that Do's internal
// background context never cancels user-visible behavior: a healthy
// backend round-trips normally through the resilient client.
func TestOperationContextUnaffectedByRetries(t *testing.T) {
	cl, _ := testBackend(t)
	cl.Put("k", []byte(`{"ok":true}`))
	if data, ok := cl.Get("k"); !ok || string(data) != `{"ok":true}` {
		t.Fatalf("round trip: ok=%v data=%s", ok, data)
	}
	if rs := cl.Resilience(); rs.Retry.Retries != 0 || rs.Breaker.State != "closed" {
		t.Fatalf("healthy traffic produced resilience noise: %+v", rs)
	}
}
