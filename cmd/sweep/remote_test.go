package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/store"
	"repro/internal/store/httpstore"
)

// startCoordinator mounts the cluster endpoints the way served does: the
// lease protocol and the shared store over HTTP.
func startCoordinator(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/shards/", fabric.Handler(fabric.NewManager()))
	mux.Handle("/v1/store/", httpstore.Handler(st))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, st
}

// TestRemoteSweepGolden is the distributed acceptance check: the golden
// grid (-n 6 -seed 42 -exhaustive), split into three shards, executed by
// three worker processes against a coordinator — with one extra worker
// killed mid-shard first — renders exactly testdata/store_sweep.golden,
// the same bytes the local cold/warm/kill+resume paths are pinned to.
func TestRemoteSweepGolden(t *testing.T) {
	srv, _ := startCoordinator(t)
	spec := fabric.JobSpec{N: 6, Seed: 42, Exhaustive: true, Shards: 3}

	// A doomed worker leases the first shard on the shortest TTL the
	// coordinator allows, checkpoints one scenario, and dies without
	// completing; the lease must expire before the real workers start.
	cl := fabric.NewClient(srv.URL, nil)
	jobID, err := cl.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	lease, ok, err := cl.Acquire(jobID, "victim", fabric.MinTTL)
	if err != nil || !ok {
		t.Fatalf("victim acquire: ok=%v err=%v", ok, err)
	}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := fabric.ShardRange(lease.Shard, lease.Shards, len(scenarios))
	backend := httpstore.New(srv.URL, nil)
	if _, err := engine.RunWith(scenarios[lo], engine.RunConfig{Store: backend, Resume: true}); err != nil {
		t.Fatal(err)
	}
	expiry := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.Status(jobID)
		if err == nil && st.Shards[lease.Shard].State == "expired" {
			break
		}
		if time.Now().After(expiry) {
			t.Fatal("victim lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2", "w3"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			w := &fabric.Worker{Coordinator: srv.URL, Name: name, TTL: time.Second, Drain: true}
			if _, err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(name)
	}
	wg.Wait()

	out := sweepOut(t, "-remote", srv.URL, "-shards", "3",
		"-n", "6", "-seed", "42", "-exhaustive", "-workers", "2")
	golden := filepath.Join("testdata", "store_sweep.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("distributed output diverged from %s:\n--- got ---\n%s--- want ---\n%s", golden, out, want)
	}
}

func TestRemoteFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-remote", "http://x", "-store", "dir"},
		{"-remote", "http://x", "-resume"},
	} {
		var sb noopWriter
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) accepted -remote with local persistence flags", args)
		}
	}
}

type noopWriter struct{}

func (noopWriter) Write(p []byte) (int, error) { return len(p), nil }
