package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/resilience"
)

// fastClient returns a protocol client with millisecond backoff so
// exhaustion tests don't wait out real schedules.
func fastClient(baseURL string) *Client {
	return NewClientWithOptions(baseURL, resilience.Options{
		Policy: resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
	})
}

// TestClientRetriesTransient500s pins the protocol client's retry loop:
// two 500s followed by a real coordinator answer make Submit succeed, with
// the retries visible in the stats.
func TestClientRetriesTransient500s(t *testing.T) {
	m := NewManager()
	inner := Handler(m)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cl := fastClient(srv.URL)
	jobID, err := cl.Submit(clusterSpec)
	if err != nil {
		t.Fatalf("Submit through two 500s: %v", err)
	}
	if jobID == "" {
		t.Fatal("empty job ID")
	}
	if st := cl.Retryer().Stats(); st.Retries != 2 {
		t.Fatalf("retry stats %+v, want 2 retries", st)
	}
}

// TestClientProtocolVerdictsAreDefinitive pins the classification at the
// fabric edge: a 409 heartbeat answer surfaces as ErrLeaseLost from a
// single request — never retried, never counted against the breaker.
func TestClientProtocolVerdictsAreDefinitive(t *testing.T) {
	m := NewManager()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	cl := fastClient(srv.URL)
	if _, err := cl.Submit(clusterSpec); err != nil {
		t.Fatal(err)
	}
	err := cl.Heartbeat(Lease{Job: "nope", Shard: 0}, "w", time.Second)
	if !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("heartbeat on unknown job: %v, want ErrUnknownJob", err)
	}
	lease, ok, err := cl.Acquire("", "w1", MinTTL)
	if err != nil || !ok {
		t.Fatalf("acquire: %v ok=%v", err, ok)
	}
	if err := cl.Heartbeat(lease, "thief", MinTTL); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("heartbeat as non-owner: %v, want ErrLeaseLost", err)
	}
	if st := cl.Retryer().Stats(); st.Retries != 0 {
		t.Fatalf("definitive verdicts were retried: %+v", st)
	}
	if cl.Breaker().State() != resilience.Closed {
		t.Fatal("definitive verdicts tripped the breaker")
	}
}

// TestDrainWorkerRetriesFailedJobListing is the regression test for the
// drain-exit bug: a worker in drain mode whose "is everything complete?"
// job listing fails must NOT report a clean drain — the failure counts
// against the drain error budget like any other coordinator failure, and
// sustained failure surfaces as an error.
func TestDrainWorkerRetriesFailedJobListing(t *testing.T) {
	var listings atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/acquire"):
			w.WriteHeader(http.StatusNoContent) // no leasable work
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/jobs"):
			listings.Add(1)
			http.Error(w, "listing down", http.StatusInternalServerError)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	w := &Worker{
		Coordinator: srv.URL, Name: "drainer", TTL: MinTTL, Poll: 5 * time.Millisecond,
		Drain: true, drainErrLimit: 2,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stats, err := w.Run(ctx)
	if err == nil {
		t.Fatal("drain worker reported a clean drain while the job listing was failing")
	}
	if ctx.Err() != nil {
		t.Fatalf("worker did not give up on its own: %v", err)
	}
	if stats.Shards != 0 {
		t.Fatalf("stats %+v", stats)
	}
	// The client retries each listing internally, so the worker's two
	// budgeted attempts are a lower bound on requests observed.
	if n := listings.Load(); n < 2 {
		t.Fatalf("job listing hit %d time(s); want the worker to retry it", n)
	}
}

// TestDrainWorkerSurvivesTransientListingFailure is the healthy half of
// the drain fix: a listing that fails once and then answers "all complete"
// still ends in a clean drain instead of an error (or a premature one).
func TestDrainWorkerSurvivesTransientListingFailure(t *testing.T) {
	var listings atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/acquire"):
			w.WriteHeader(http.StatusNoContent)
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/jobs"):
			// The worker's client retries 500s internally (4 attempts per
			// listing), so fail the entire first listing call, then heal.
			if listings.Add(1) <= 4 {
				http.Error(w, "transient", http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"jobs":[]}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	w := &Worker{
		Coordinator: srv.URL, Name: "drainer", TTL: MinTTL, Poll: 5 * time.Millisecond,
		Drain: true, drainErrLimit: 5,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := w.Run(ctx); err != nil {
		t.Fatalf("drain after transient listing failure: %v", err)
	}
	if n := listings.Load(); n < 5 {
		t.Fatalf("listing hit %d time(s); want the first call retried and a second call to succeed", n)
	}
}

// TestWorkerAbandonsLostLease pins the partition bound: a heartbeat
// answered 409 (another worker owns the shard) abandons the shard between
// scenarios — counted in LeasesLost — instead of burning through the whole
// range, and the worker still drains the job to completion via later
// leases.
func TestWorkerAbandonsLostLease(t *testing.T) {
	c := newCluster(t)
	// Forge one lost lease: the first heartbeat is answered 409 regardless
	// of the manager's actual lease table — what a worker sees after a
	// partition long enough for its shard to be stolen — and later
	// heartbeats flow normally so the re-stolen lease can finish. Scenario
	// checkpoints land in the shared store either way, so the second lease
	// resumes past everything the first one computed.
	var forged atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shards/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		if forged.CompareAndSwap(false, true) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			w.Write([]byte(`{"error":"fabric: lease lost"}`))
			return
		}
		c.srv.Config.Handler.ServeHTTP(w, r)
	})
	mux.Handle("/", c.srv.Config.Handler)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cl := NewClient(srv.URL, nil)
	jobID, err := cl.Submit(JobSpec{N: 6, Seed: 42, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{
		Coordinator: srv.URL, Name: "partitioned",
		TTL: 150 * time.Millisecond, Poll: 20 * time.Millisecond,
		Throttle: 30 * time.Millisecond, Drain: true,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stats, err := w.Run(ctx)
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if stats.LeasesLost == 0 {
		t.Fatalf("stats %+v: no lease recorded as lost despite 409 heartbeats", stats)
	}
	awaitComplete(t, cl, jobID, 5*time.Second)
}

// lockedLog is a Worker.Log safe for the heartbeat goroutine's writes.
type lockedLog struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestWorkerAbandonsBadLease: a lease naming a shard outside its job (as a
// buggy or hostile coordinator could send) is logged and abandoned like any
// failed shard. It must neither index past the grid and kill the worker,
// nor complete the real shard without running it; the worker steals the
// real lease back once it expires and runs all six scenarios.
func TestWorkerAbandonsBadLease(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(*Lease)
	}{
		{"shard past count", func(l *Lease) { l.Shard, l.Shards = 5, 3 }},
		{"negative shard", func(l *Lease) { l.Shard, l.Shards = -1, 3 }},
		{"more shards than scenarios", func(l *Lease) { l.Shards = 7 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t)
			var forged atomic.Bool
			mux := http.NewServeMux()
			mux.HandleFunc("POST /v1/shards/acquire", func(w http.ResponseWriter, r *http.Request) {
				if !forged.CompareAndSwap(false, true) {
					c.srv.Config.Handler.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				c.srv.Config.Handler.ServeHTTP(rec, r)
				var lease Lease
				if err := json.Unmarshal(rec.Body.Bytes(), &lease); err != nil {
					t.Errorf("first acquire: %v (%d %q)", err, rec.Code, rec.Body)
				}
				tc.forge(&lease)
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(lease)
			})
			mux.Handle("/", c.srv.Config.Handler)
			srv := httptest.NewServer(mux)
			defer srv.Close()

			cl := NewClient(srv.URL, nil)
			jobID, err := cl.Submit(JobSpec{N: 6, Seed: 42, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			var log lockedLog
			w := &Worker{
				Coordinator: srv.URL, Name: "misled", TTL: 150 * time.Millisecond,
				Poll: 20 * time.Millisecond, Drain: true, Log: &log,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			stats, err := w.Run(ctx)
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
			if stats.Shards != 1 || stats.Scenarios != 6 {
				t.Fatalf("stats %+v, want the one real shard completed with all 6 scenarios run", stats)
			}
			if !strings.Contains(log.String(), "outside a 6-scenario job") {
				t.Fatalf("bad lease not logged:\n%s", log.String())
			}
			awaitComplete(t, cl, jobID, 5*time.Second)
		})
	}
}

// TestWorkerSurvivesScenarioPanic pins panic isolation: a scenario whose
// kernel panics costs one shard attempt (retried on a later lease), never
// the worker process, and the panic is counted.
func TestWorkerSurvivesScenarioPanic(t *testing.T) {
	c := newCluster(t)
	cl := NewClient(c.srv.URL, nil)
	jobID, err := cl.Submit(JobSpec{N: 6, Seed: 42, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	w := &Worker{
		Coordinator: c.srv.URL, Name: "panicky", TTL: time.Second,
		Poll: 10 * time.Millisecond, Drain: true,
		runFn: func(s engine.Scenario, rc engine.RunConfig) (*engine.Result, error) {
			if fired.CompareAndSwap(false, true) {
				panic("injected kernel fault")
			}
			return engine.RunWith(s, rc)
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stats, err := w.Run(ctx)
	if err != nil {
		t.Fatalf("worker died: %v", err)
	}
	if stats.Panics != 1 {
		t.Fatalf("stats %+v, want exactly the one injected panic", stats)
	}
	if stats.Shards == 0 {
		t.Fatalf("stats %+v: job never completed after the panic", stats)
	}
	awaitComplete(t, cl, jobID, 5*time.Second)
}
