package fabric

import (
	"context"
	"iter"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/store/httpstore"
)

// storeWriteCounter is an http.RoundTripper that counts store write
// requests (PUTs under /v1/store/) and passes everything through.
type storeWriteCounter struct {
	inner http.RoundTripper
	puts  atomic.Int64
}

func (c *storeWriteCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/v1/store/") {
		c.puts.Add(1)
	}
	return c.inner.RoundTrip(req)
}

// requestLog is the coordinator's disk store with a log: every PutBatch
// call, one per store write request the handler accepted, logs its keys
// in order.
type requestLog struct {
	*store.Store
	mu   sync.Mutex
	reqs [][]string
}

func (l *requestLog) PutBatch(recs iter.Seq2[string, []byte]) {
	var keys []string
	for key := range recs {
		keys = append(keys, key)
	}
	l.mu.Lock()
	l.reqs = append(l.reqs, keys)
	l.mu.Unlock()
	l.Store.PutBatch(recs)
}

// runCountedWorker submits spec to a coordinator over a disk store, drains
// it with one worker, checks the assembled report against the in-memory
// sweep, and returns the worker's store write requests (as counted by its
// transport) and, per request the server saw, the keys in Put order. A
// retried request carries the same records as the attempt before it (and
// landing them twice is harmless), so an entry equal to the previous one
// is dropped: an attempt that outlived its deadline is not a second batch.
func runCountedWorker(t *testing.T, spec JobSpec) (int64, [][]string) {
	t.Helper()
	scenarios, want := baseline(t, spec)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rl := &requestLog{Store: st}
	srv := httptest.NewServer(coordinatorHandler(NewManager(), rl))
	defer srv.Close()
	if _, err := NewClient(srv.URL, nil).Submit(spec); err != nil {
		t.Fatal(err)
	}

	rt := &storeWriteCounter{inner: http.DefaultTransport}
	w := &Worker{Coordinator: srv.URL, Name: "counted", TTL: 2 * time.Second, Drain: true,
		HTTPClient: &http.Client{Transport: rt}}
	stats, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scenarios != spec.N || stats.Shards != spec.Shards {
		t.Fatalf("stats %+v, want %d scenarios in %d shards", stats, spec.N, spec.Shards)
	}
	mustMatch(t, "batched worker vs single-process", assemble(t, srv.URL, scenarios), want)
	srv.Close() // waits for any write request still in the handler
	if int64(len(rl.reqs)) != rt.puts.Load() {
		t.Fatalf("server saw %d write requests, the worker sent %d", len(rl.reqs), rt.puts.Load())
	}
	var reqs [][]string
	for _, keys := range rl.reqs {
		if n := len(reqs); n > 0 && slices.Equal(reqs[n-1], keys) {
			continue
		}
		reqs = append(reqs, keys)
	}
	return rt.puts.Load(), reqs
}

// TestWorkerOneStoreWritePerScenario pins the batched write path: a drain
// worker sends exactly one store write request per scenario it runs, and
// each request carries that scenario's outcome records followed by its
// checkpoint — exactly one, last — so a checkpoint never lands before the
// records it summarizes. The assembled report stays bit-identical.
func TestWorkerOneStoreWritePerScenario(t *testing.T) {
	puts, reqs := runCountedWorker(t, clusterSpec)
	if puts != int64(clusterSpec.N) {
		t.Fatalf("worker sent %d store write requests for %d scenarios, want one each", puts, clusterSpec.N)
	}
	for i, keys := range reqs {
		if len(keys) < 2 {
			t.Fatalf("request %d carried %d record(s), want outcomes plus a checkpoint", i, len(keys))
		}
		for j, k := range keys {
			last := j == len(keys)-1
			if strings.HasPrefix(k, "r/") != last || (!last && !strings.HasPrefix(k, "o/")) {
				t.Fatalf("request %d record %d is %q: want outcome records then exactly one checkpoint, last", i, j, k)
			}
		}
	}
}

// TestWorkerLargeScenarioPublishesInChunks pins the bounded buffer at the
// worker: one exhaustive scenario that writes thousands of records goes
// out as a run of full, equal-sized requests and a final one, never as one
// request whose server time grows with the scenario, and its checkpoint is
// still the very last record published. The report stays bit-identical.
func TestWorkerLargeScenarioPublishesInChunks(t *testing.T) {
	spec := JobSpec{N: 1, Seed: 2, Apps: 4, MaxM: 12, Exhaustive: true, Shards: 1}
	puts, reqs := runCountedWorker(t, spec)
	if puts < 3 {
		t.Fatalf("a large scenario went out in %d request(s), want it split", puts)
	}
	full := len(reqs[0])
	records := 0
	for i, keys := range reqs {
		if i < len(reqs)-1 && len(keys) != full || len(keys) > full {
			t.Fatalf("request %d carried %d records, want %d (a full buffer) or fewer, last", i, len(keys), full)
		}
		for j, k := range keys {
			last := i == len(reqs)-1 && j == len(keys)-1
			if strings.HasPrefix(k, "r/") != last {
				t.Fatalf("request %d record %d is %q: want the checkpoint exactly once, last", i, j, k)
			}
		}
		records += len(keys)
	}
	t.Logf("%d records in %d requests of up to %d", records, len(reqs), full)
}

// TestBatchedRunMatchesUnbuffered pins read-your-writes: runs against a
// write buffer see exactly the store a direct client would, so every
// result — DiskHits included — is bit-identical to the unbuffered run.
// Each golden scenario runs twice, hybrid-only first: the exhaustive run
// shares its evaluation namespace (the search flags key only the
// checkpoint), so it reads back outcomes the first run wrote — from the
// server unbuffered; buffered, from the buffer while they wait there and
// from the server once a full buffer has gone out. All twelve runs share
// one Batch and write more records than it holds, so both paths run.
func TestBatchedRunMatchesUnbuffered(t *testing.T) {
	golden, _ := baseline(t, clusterSpec)
	var scenarios []engine.Scenario
	for _, scn := range golden {
		hybrid := scn
		hybrid.Exhaustive = false
		scenarios = append(scenarios, hybrid, scn)
	}
	client := func() *httpstore.Client {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(httpstore.Handler(st))
		t.Cleanup(srv.Close)
		return httpstore.New(srv.URL, nil)
	}
	direct, buffered := client(), client()
	batch := buffered.Batch()
	var diskHits int64
	for _, scn := range scenarios {
		want, err := engine.RunWith(scn, engine.RunConfig{Store: direct, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.RunWith(scn, engine.RunConfig{Store: batch, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if got.Evaluated != want.Evaluated || got.CacheStats != want.CacheStats ||
			got.Best.String() != want.Best.String() ||
			math.Float64bits(got.BestValue) != math.Float64bits(want.BestValue) {
			t.Fatalf("%s: buffered run diverged:\n got evaluated=%d stats=%+v best=%v value=%x\nwant evaluated=%d stats=%+v best=%v value=%x",
				scn.Name, got.Evaluated, got.CacheStats, got.Best, math.Float64bits(got.BestValue),
				want.Evaluated, want.CacheStats, want.Best, math.Float64bits(want.BestValue))
		}
		diskHits += got.CacheStats.DiskHits
	}
	s := buffered.Stats()
	if diskHits <= s.Hits {
		t.Fatalf("%d disk hits, %d from the server: the read-your-writes path went unexercised", diskHits, s.Hits)
	}
	if s.Hits == 0 || s.Puts == 0 {
		t.Fatalf("buffered client traffic before Flush %+v: no full buffer went out mid-run", s)
	}
	batch.Flush()
	if d, b := direct.Stats(), buffered.Stats(); d.Puts != b.Puts || b.PutErrors != 0 {
		t.Fatalf("record counts differ: direct %+v, buffered %+v", d, b)
	}
}

// outcomesOnly is a backend over a disk store that lands a run's
// evaluation records but drops its checkpoint — what a worker killed
// mid-scenario leaves once a full buffer has gone out — and logs the keys
// it landed.
type outcomesOnly struct {
	st   *store.Store
	mu   sync.Mutex
	keys map[string]bool
}

func (o *outcomesOnly) Get(key string) ([]byte, bool) { return o.st.Get(key) }

func (o *outcomesOnly) Put(key string, payload []byte) {
	if strings.HasPrefix(key, "r/") {
		return
	}
	o.mu.Lock()
	o.keys[key] = true
	o.mu.Unlock()
	o.st.Put(key, payload)
}

// TestReleasedScenarioReadsHeldNamespace pins the namespace probe on both
// of its answers. The first shard's scenarios left their evaluation
// records in the coordinator's store but no checkpoint, as on a re-lease
// after a kill: the worker finds those namespaces held, every one of their
// records is a hit, and none is recomputed (a recomputed record would be
// written back). The other scenarios' namespaces are empty: the worker
// reads none of their records, so the only misses in the whole run are
// the six checkpoint reads. The report stays bit-identical.
func TestReleasedScenarioReadsHeldNamespace(t *testing.T) {
	scenarios, want := baseline(t, clusterSpec)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	half := &outcomesOnly{st: st, keys: map[string]bool{}}
	lo, hi := ShardRange(0, clusterSpec.Shards, clusterSpec.N)
	for _, scn := range scenarios[lo:hi] {
		if _, err := engine.RunWith(scn, engine.RunConfig{Store: half}); err != nil {
			t.Fatal(err)
		}
	}
	if len(half.keys) == 0 {
		t.Fatal("the first shard wrote no evaluation records")
	}
	before := st.Stats()

	rl := &requestLog{Store: st}
	srv := httptest.NewServer(coordinatorHandler(NewManager(), rl))
	defer srv.Close()
	if _, err := NewClient(srv.URL, nil).Submit(clusterSpec); err != nil {
		t.Fatal(err)
	}
	w := &Worker{Coordinator: srv.URL, Name: "released", TTL: 2 * time.Second, Drain: true}
	if stats, err := w.Run(context.Background()); err != nil || stats.Scenarios != clusterSpec.N {
		t.Fatalf("worker: %v (stats %+v)", err, stats)
	}
	after := st.Stats()
	hits, gets := after.Hits-before.Hits, after.Gets-before.Gets
	if hits != int64(len(half.keys)) {
		t.Fatalf("the coordinator served %d record hits, want the %d records left behind", hits, len(half.keys))
	}
	if misses := gets - hits; misses != int64(clusterSpec.N) {
		t.Fatalf("%d reads missed, want only the %d checkpoint reads", misses, clusterSpec.N)
	}
	rl.mu.Lock()
	for _, keys := range rl.reqs {
		for _, k := range keys {
			if half.keys[k] {
				rl.mu.Unlock()
				t.Fatalf("the worker recomputed %q, which the store held", k)
			}
		}
	}
	rl.mu.Unlock()
	mustMatch(t, "re-leased worker vs single-process", assemble(t, srv.URL, scenarios), want)
}

// TestDrainWorkerNoThrottleAfterLastScenario pins that Throttle paces only
// the gaps between scenarios: over one-scenario shards an hour-long
// throttle never fires, so a drain worker completes every shard and
// returns well inside the deadline.
func TestDrainWorkerNoThrottleAfterLastScenario(t *testing.T) {
	c := newCluster(t)
	spec := JobSpec{N: 2, Seed: 42, Shards: 2}
	if _, err := NewClient(c.srv.URL, nil).Submit(spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := &Worker{Coordinator: c.srv.URL, Name: "throttled", TTL: time.Second,
		Poll: 10 * time.Millisecond, Drain: true, Throttle: time.Hour}
	stats, err := w.Run(ctx)
	if err != nil {
		t.Fatalf("drain worker: %v (stats %+v)", err, stats)
	}
	if stats.Shards != 2 || stats.Scenarios != 2 {
		t.Fatalf("stats %+v, want 2 one-scenario shards completed", stats)
	}
}
