package fabric

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/frame"
	"repro/internal/store"
	"repro/internal/store/httpstore"
)

// clusterSpec mirrors the cmd/sweep golden arguments (-n 6 -seed 42
// -exhaustive) so these tests exercise the exact sweep the repo's
// bit-identity goldens pin, split three ways.
var clusterSpec = JobSpec{N: 6, Seed: 42, Exhaustive: true, Shards: 3}

// coordinatorHandler is the coordinator wiring cmd/served mounts: the lease
// protocol and the HTTP store endpoints over one shared disk store.
func coordinatorHandler(m *Manager, st httpstore.Store) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/shards/", Handler(m))
	mux.Handle("/v1/store/", httpstore.Handler(st))
	return mux
}

type cluster struct {
	srv *httptest.Server
	mgr *Manager
	st  *store.Store
	dir string
}

func newCluster(t *testing.T) *cluster {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	srv := httptest.NewServer(coordinatorHandler(m, st))
	t.Cleanup(srv.Close)
	return &cluster{srv: srv, mgr: m, st: st, dir: dir}
}

// reportSummary flattens the report-visible fields of a result, mirroring
// the engine's cold/warm/resume equality checks. DiskHits is deliberately
// absent: it is the one counter allowed to differ between store tiers (and
// between which worker happened to compute a scenario).
type reportSummary struct {
	Name      string
	Seed      int64
	AppCount  int
	Best      string
	ValueBits uint64
	Found     bool
	Evaluated int
	Hits      int64
	Misses    int64
	ExhBest   string
	ExhBits   uint64
	ExhEval   int
	ExhFeas   int
}

func summarizeResult(t *testing.T, r *engine.Result) reportSummary {
	t.Helper()
	if r == nil {
		t.Fatal("nil result in assembled sweep")
	}
	s := reportSummary{
		Name:      r.Name,
		Seed:      r.Seed,
		AppCount:  r.AppCount,
		ValueBits: math.Float64bits(r.BestValue),
		Found:     r.FoundBest,
		Evaluated: r.Evaluated,
		Hits:      r.CacheStats.Hits,
		Misses:    r.CacheStats.Misses,
	}
	if r.FoundBest {
		s.Best = r.Best.String()
	}
	if ex := r.Exhaustive; ex != nil {
		s.ExhBest = ex.Best.String()
		s.ExhBits = math.Float64bits(ex.BestValue)
		s.ExhEval = ex.Evaluated
		s.ExhFeas = ex.Feasible
	}
	return s
}

func mustMatch(t *testing.T, label string, got, want []*engine.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := summarizeResult(t, got[i]), summarizeResult(t, want[i])
		if g != w {
			t.Fatalf("%s: scenario %d diverged:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// baseline runs the spec's grid fully in memory, single process — the
// reference every distributed assembly must match bit for bit.
func baseline(t *testing.T, spec JobSpec) ([]engine.Scenario, []*engine.Result) {
	t.Helper()
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Sweep(engine.Config{Workers: 2}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	return scenarios, want
}

// assemble renders the job the way cmd/sweep -remote does: a resume-mode
// sweep whose store is the coordinator's HTTP backend.
func assemble(t *testing.T, baseURL string, scenarios []engine.Scenario) []*engine.Result {
	t.Helper()
	got, err := engine.Sweep(engine.Config{
		Workers: 2,
		Store:   httpstore.New(baseURL, nil),
		Resume:  true,
	}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func awaitComplete(t *testing.T, cl *Client, jobID string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := cl.Status(jobID)
		if err == nil && st.Complete {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not complete after %v (last status %+v, err %v)", jobID, timeout, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClusterThreeWorkersBitIdentical(t *testing.T) {
	scenarios, want := baseline(t, clusterSpec)
	c := newCluster(t)
	cl := NewClient(c.srv.URL, nil)
	jobID, err := cl.Submit(clusterSpec)
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		shards int
		ran    int
	)
	for _, name := range []string{"w1", "w2", "w3"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			w := &Worker{Coordinator: c.srv.URL, Name: name, TTL: 2 * time.Second, Drain: true}
			stats, err := w.Run(context.Background())
			if err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
			mu.Lock()
			shards += stats.Shards
			ran += stats.Scenarios
			mu.Unlock()
		}(name)
	}
	wg.Wait()
	if shards != 3 || ran != clusterSpec.N {
		t.Fatalf("cluster ran %d shard(s), %d scenario(s); want 3, %d", shards, ran, clusterSpec.N)
	}
	awaitComplete(t, cl, jobID, time.Second)

	got := assemble(t, c.srv.URL, scenarios)
	for _, r := range got {
		if !r.Resumed {
			t.Fatalf("scenario %s recomputed during assembly; want checkpoint resume", r.Name)
		}
	}
	mustMatch(t, "3-worker distributed vs single-process", got, want)

	// A checkpoint record corrupted at rest reads as a miss through the HTTP
	// backend: re-assembly recomputes exactly that scenario and the output
	// stays bit-identical.
	if n := corruptOneCheckpoint(t, c.dir); n != 1 {
		t.Fatalf("corrupted %d checkpoint records, want 1", n)
	}
	healed := assemble(t, c.srv.URL, scenarios)
	recomputed := 0
	for _, r := range healed {
		if !r.Resumed {
			recomputed++
		}
	}
	if recomputed != 1 {
		t.Fatalf("%d scenario(s) recomputed after corrupting one record, want 1", recomputed)
	}
	mustMatch(t, "assembly over corrupt record vs single-process", healed, want)
}

// corruptOneCheckpoint flips a payload byte in every frame of the first
// (path- and offset-ordered) per-scenario checkpoint record in the store
// at dir, so each fails its CRC, and reports how many records it hit.
func corruptOneCheckpoint(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	victim := ""
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hit := false
		for off := 0; off < len(data); {
			body, n, err := frame.Decode(data[off:], len(data))
			if err != nil {
				break
			}
			// body := version | uvarint(len(key)) | key | sha256 | payload
			keyLen, w := binary.Uvarint(body[1:])
			key := string(body[1+w : 1+w+int(keyLen)])
			if victim == "" && strings.HasPrefix(key, "r/") {
				victim = key
			}
			if key == victim {
				data[off+n-1] ^= 0x01
				hit = true
			}
			off += n
		}
		if hit {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if victim == "" {
		t.Fatal("no checkpoint records found to corrupt")
	}
	return 1
}

func TestClusterWorkerKilledMidShardHeals(t *testing.T) {
	scenarios, want := baseline(t, clusterSpec)
	c := newCluster(t)
	cl := NewClient(c.srv.URL, nil)
	jobID, err := cl.Submit(clusterSpec)
	if err != nil {
		t.Fatal(err)
	}

	// The victim leases shard 0 on a short TTL, checkpoints only the first
	// scenario of its range, and dies: no heartbeat, no Complete.
	victimTTL := MinTTL
	lease, ok, err := cl.Acquire(jobID, "victim", victimTTL)
	if err != nil || !ok || lease.Shard != 0 {
		t.Fatalf("victim acquire: lease=%+v ok=%v err=%v", lease, ok, err)
	}
	lo, hi := ShardRange(lease.Shard, lease.Shards, len(scenarios))
	if hi-lo < 2 {
		t.Fatalf("shard 0 spans [%d, %d); test needs at least 2 scenarios to die between", lo, hi)
	}
	backend := httpstore.New(c.srv.URL, nil)
	if _, err := engine.RunWith(scenarios[lo], engine.RunConfig{Store: backend, Resume: true}); err != nil {
		t.Fatal(err)
	}

	// The lease must expire before anyone can steal the orphaned shard.
	expiryDeadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.Status(jobID)
		if err == nil && st.Shards[0].State == "expired" {
			break
		}
		if time.Now().After(expiryDeadline) {
			t.Fatalf("victim lease never expired: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// One surviving worker drains the job: it steals the expired shard,
	// resumes past the victim's checkpointed scenario, and finishes the rest.
	w := &Worker{Coordinator: c.srv.URL, Name: "survivor", TTL: time.Second, Drain: true}
	stats, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 3 {
		t.Fatalf("survivor completed %d shard(s), want all 3", stats.Shards)
	}
	awaitComplete(t, cl, jobID, time.Second)

	got := assemble(t, c.srv.URL, scenarios)
	mustMatch(t, "kill-mid-shard distributed vs single-process", got, want)
}

func TestClusterCoordinatorRestartWithLiveWorkers(t *testing.T) {
	scenarios, want := baseline(t, clusterSpec)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	baseURL := "http://" + addr
	srvA := &http.Server{Handler: coordinatorHandler(NewManager(), st)}
	go srvA.Serve(ln)

	cl := NewClient(baseURL, nil)
	jobID, err := cl.Submit(clusterSpec)
	if err != nil {
		t.Fatal(err)
	}

	// A persistent (non-drain) worker throttled enough that the job is still
	// mid-flight when the coordinator dies under it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		w := &Worker{
			Coordinator: baseURL, Name: "steady",
			TTL: 500 * time.Millisecond, Poll: 50 * time.Millisecond,
			Throttle: 30 * time.Millisecond,
		}
		_, err := w.Run(ctx)
		workerDone <- err
	}()

	// Wait for real progress, then kill coordinator A mid-job.
	progressDeadline := time.Now().Add(30 * time.Second)
	for {
		jst, err := cl.Status(jobID)
		if err == nil && jst.Done >= 1 {
			break
		}
		if time.Now().After(progressDeadline) {
			t.Fatalf("no shard completed before restart (err %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srvA.Close()

	// Coordinator B: fresh (empty) lease table, same disk store, same
	// address. The worker has been retrying its polls the whole time.
	var ln2 net.Listener
	rebindDeadline := time.Now().Add(5 * time.Second)
	for {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(rebindDeadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srvB := &http.Server{Handler: coordinatorHandler(NewManager(), st)}
	go srvB.Serve(ln2)
	defer srvB.Close()

	// Re-submitting the same spec lands on the same content-hashed job ID;
	// shards the dead coordinator had marked done are re-leased, but every
	// checkpointed scenario resumes from the store instead of recomputing.
	// The first attempts may ride a stale keep-alive connection to the dead
	// coordinator — drivers retry, so the test does too.
	var jobID2 string
	resubmitDeadline := time.Now().Add(5 * time.Second)
	for {
		jobID2, err = cl.Submit(clusterSpec)
		if err == nil {
			break
		}
		if time.Now().After(resubmitDeadline) {
			t.Fatalf("re-submit after restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if jobID2 != jobID {
		t.Fatalf("job ID changed across coordinator restart: %q vs %q", jobID2, jobID)
	}
	awaitComplete(t, cl, jobID, 30*time.Second)

	cancel()
	if err := <-workerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("worker exit: %v, want context.Canceled", err)
	}

	got := assemble(t, baseURL, scenarios)
	mustMatch(t, "coordinator-restart distributed vs single-process", got, want)
}
