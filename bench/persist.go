package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/evalcache"
	"repro/internal/fabric"
	"repro/internal/parallel"
	"repro/internal/store"
	"repro/internal/store/httpstore"
)

// persistSizes are the fixed work counts of one persist-sweep cycle: a
// local round and a cluster pass.
type persistSizes struct {
	grid    int // scenarios per local round (4 platforms, exhaustive)
	cluster int // scenarios per cluster job
	shards  int // shards the cluster job is cut into
}

func runPersist(e *env) (*result, error) {
	sz := persistSizes{grid: 150, cluster: 60, shards: 20}
	if e.smoke {
		sz = persistSizes{grid: 8, cluster: 8, shards: 4}
	}
	res := &result{layer: map[string]float64{}}
	dir := filepath.Join(e.work, fmt.Sprintf("persist-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res.info = append(res.info, "stores and journals under "+dir)

	coord, _, err := startReady(e.served, &http.Client{Timeout: 30 * time.Second},
		"-store", filepath.Join(dir, "coordinator", "store"), "-journal", filepath.Join(dir, "coordinator", "journal"))
	if err != nil {
		return nil, err
	}
	defer coord.stop()

	// Whole cycles keep the mix of phases, and so the throughput, the same
	// however many cycles a run fits.
	rss := sampleRSS("self")
	before := parallel.Default().Stats()
	var (
		ph persistPhases
		cl clusterTally
	)
	end := e.deadline(1)
	for c := 0; c == 0 || time.Now().Before(end); c++ {
		if err := ph.round(e, res, dir, c, sz.grid); err != nil {
			return nil, err
		}
		if err := cl.pass(e, res, coord, c, sz); err != nil {
			return nil, err
		}
	}

	res.rssMB = rss.median()
	res.throughput = ratio(float64(ph.ops[0]+ph.ops[1]+ph.ops[2]+cl.ops), ph.untraced+cl.compute+cl.assemble)
	res.latP50 = percentile(ph.lat, 50)
	res.latP90 = percentile(ph.lat, 90)
	layer := res.layer
	layer["persist.cold_scen_per_s"] = ratio(float64(ph.ops[0]), ph.secs[0])
	layer["persist.warm_scen_per_s"] = ratio(float64(ph.ops[1]), ph.secs[1])
	layer["persist.resume_scen_per_s"] = ratio(float64(ph.ops[2]), ph.secs[2])
	layer["cluster.scen_per_s"] = ratio(float64(cl.ops), cl.compute+cl.assemble)
	layer["cluster.compute_s"] = cl.compute
	layer["cluster.assemble_s"] = cl.assemble
	res.info = append(res.info, fmt.Sprintf("scenarios/s: cold %.1f, warm %.1f, resume %.1f, cluster %.1f",
		layer["persist.cold_scen_per_s"], layer["persist.warm_scen_per_s"],
		layer["persist.resume_scen_per_s"], layer["cluster.scen_per_s"]))
	if e.tr != nil {
		executorDelta(before, layer)
		layerTimes(e, layer)
		layer["trace.overhead_pct"] = 100 * (ratio(ph.traced, ph.untraced) - 1)
		layer["evalcache.disk_hits"] = float64(ph.diskHits)
		layer["evalcache.executions"] = float64(ph.executions)
		layer["evalcache.hit_ratio"] = ratio(float64(ph.hits), float64(ph.lookups))
		ph.store.report(e.tr, layer)
		cl.http.report(e.tr, layer)
		layer["fabric.journal_appends"] = cl.appends
		layer["fabric.journal_fsyncs"] = cl.fsyncs
	}
	return res, nil
}

// persistPhases accumulates the local rounds.
type persistPhases struct {
	ops                                 [3]int // cold, warm, resume
	secs                                [3]float64
	lat                                 []float64 // seconds per untraced local scenario
	untraced, traced                    float64
	hits, lookups, diskHits, executions int64
	store                               storeTally
}

var phaseNames = [3]string{"cold", "warm", "resume"}

// round runs one stored sweep of a fresh grid three times — cold (every
// evaluation executes and is written), warm without resume (every
// evaluation is a disk-tier read) and resumed (checkpoint loads only) —
// and checks every result against the in-memory sweep of the same grid.
func (ph *persistPhases) round(e *env, res *result, dir string, r, n int) error {
	g := engine.Grid{N: n, Seed: splitmix(e.seed, uint64(r)), Platforms: 4, Exhaustive: true}
	scs, err := g.Scenarios()
	if err != nil {
		return err
	}
	mem, err := engine.Sweep(engine.Config{Workers: e.workers}, scs)
	if err != nil {
		return err
	}
	// Traced runs repeat each phase on a second store with the timed
	// backend, so tracing overhead compares identical work. The second of
	// a pair runs faster on a file system the first just warmed, so the
	// order alternates from round to round.
	variants := []bool{false}
	switch {
	case e.tr != nil && r%2 == 0:
		variants = []bool{false, true}
	case e.tr != nil:
		variants = []bool{true, false}
	}
	stores := make([]string, len(variants))
	for v := range variants {
		stores[v] = filepath.Join(dir, fmt.Sprintf("round%d-%d", r, v))
	}
	for p := range phaseNames {
		for v, traced := range variants {
			if p == 0 {
				flushDisk()
			}
			if p == 1 && !traced {
				// Set-up is what a warm or resumed sweep pays before its first
				// scenario: opening the store walks and counts its records.
				for k := 0; k < setups; k++ {
					t0 := time.Now()
					if _, err := store.Open(stores[v]); err != nil {
						return err
					}
					res.setups = append(res.setups, time.Since(t0).Seconds())
				}
			}
			st, err := store.Open(stores[v])
			if err != nil {
				return err
			}
			results := make([]*engine.Result, n)
			phase := phaseNames[p]
			l := runLoop(e.workers, n, n, 1, time.Time{}, func(i int) error {
				var be evalcache.Backend = st
				var sc *scope
				if traced {
					sc = e.tr.begin("engine", "sweep-"+phase, scs[i].Name)
					defer sc.end()
					be = &timedBackend{inner: st, sc: sc, tr: e.tr, tally: &ph.store}
				}
				r, err := sweepOne(engine.Config{Workers: 1, Store: be, Resume: p == 2}, scs[i])
				if err != nil {
					return err
				}
				results[i] = r
				if got, want := outcomeOf(r), outcomeOf(mem[i]); got != want {
					return fmt.Errorf("%s %s: %v, in memory %v", phase, scs[i].Name, got, want)
				}
				return nil
			})
			res.account(l, 1)
			if traced {
				ph.traced += l.time()
				for _, r := range results {
					if r != nil {
						ph.hits += r.CacheStats.Hits
						ph.lookups += r.CacheStats.Lookups()
						ph.diskHits += r.CacheStats.DiskHits
						ph.executions += r.CacheStats.Executions()
					}
				}
				continue
			}
			ph.ops[p] += l.ops
			ph.secs[p] += l.time()
			ph.untraced += l.time()
			ph.lat = append(ph.lat, l.lat...)
			if p == 0 {
				rep, err := st.Scrub(false)
				if err != nil {
					return err
				}
				if rep.Bad() != 0 {
					res.problem("scrub after cold round %d: %s", r, rep)
				}
			}
		}
	}
	for _, st := range stores {
		if err := os.RemoveAll(st); err != nil {
			return err
		}
	}
	return nil
}

// flushDisk writes back every dirty page and journal entry before a
// write-heavy phase, so the writeback and discards that earlier phases'
// writes and deletions trigger do not land inside the timed phase. On the
// reference machine (ext4 with online discard on a virtual disk) a file
// create cost 20-600 us depending on that backlog; with the flush, cold
// phases of six consecutive runs stayed within ±8%.
func flushDisk() { syscall.Sync() }

// clusterTally accumulates the cluster passes.
type clusterTally struct {
	ops               int
	compute, assemble float64
	appends, fsyncs   float64
	http              httpTally
}

// pass submits a fresh grid to the coordinator as a sharded job, drains
// it with one in-process worker, assembles the report over the
// coordinator's store and checks it against the in-memory sweep.
func (cl *clusterTally) pass(e *env, res *result, coord *served, p int, sz persistSizes) error {
	spec := fabric.JobSpec{N: sz.cluster, Seed: splitmix(e.seed, uint64(1<<20+p)), Shards: sz.shards}
	grid, err := spec.Grid()
	if err != nil {
		return err
	}
	scs, err := grid.Scenarios()
	if err != nil {
		return err
	}
	mem, err := engine.Sweep(engine.Config{Workers: e.workers}, scs)
	if err != nil {
		return err
	}
	flushDisk()
	hc := &http.Client{}
	sc := e.tr.begin("bench", "cluster-pass", fmt.Sprintf("job%d", p))
	if sc != nil {
		hc.Transport = &timedTransport{inner: http.DefaultTransport, sc: sc, tr: e.tr, tally: &cl.http}
	}
	before, err := coord.statsz(hc)
	if err != nil {
		return err
	}

	t0 := time.Now()
	var (
		id    string
		stats fabric.WorkerStats
	)
	sc.do("fabric", "compute", func() {
		if id, err = fabric.NewClient(coord.url, hc).Submit(spec); err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		w := &fabric.Worker{Coordinator: coord.url, Name: "bench-worker", Poll: 10 * time.Millisecond, Drain: true, HTTPClient: hc}
		stats, err = w.Run(ctx)
	})
	if err != nil {
		sc.end()
		return fmt.Errorf("cluster pass %d: %w", p, err)
	}
	t1 := time.Now()
	var assembled []*engine.Result
	sc.do("engine", "assemble", func() {
		assembled, err = engine.Sweep(engine.Config{Workers: e.workers, Store: httpstore.New(coord.url, hc), Resume: true}, scs)
	})
	t2 := time.Now()
	sc.end()
	if err != nil {
		return fmt.Errorf("cluster assemble: %w", err)
	}
	after, err := coord.statsz(hc)
	if err != nil {
		return err
	}

	res.attempted += len(scs)
	if stats.Shards != sz.shards {
		res.problem("cluster job %s: worker completed %d of %d shards", id, stats.Shards, sz.shards)
	}
	for i := range scs {
		if assembled[i] == nil {
			res.failed++
			res.problem("cluster job %s: %s missing from the assembled report", id, scs[i].Name)
		} else if got, want := outcomeOf(assembled[i]), outcomeOf(mem[i]); got != want {
			res.failed++
			res.problem("cluster job %s: %s: %v, in memory %v", id, scs[i].Name, got, want)
		}
	}
	compute, assemble := t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	cl.ops += len(scs)
	cl.compute += compute
	cl.assemble += assemble
	cl.appends += num(after, "journal.appends") - num(before, "journal.appends")
	cl.fsyncs += num(after, "journal.fsyncs") - num(before, "journal.fsyncs")
	return nil
}

// storeTally counts what the timed store backends saw.
type storeTally struct {
	putBytes, gets, getHits atomic.Int64
}

func (t *storeTally) report(tr *tracer, layer map[string]float64) {
	puts, putBusy, putS := tr.timerStats("store.put")
	gets, getBusy, getS := tr.timerStats("store.get")
	ckpts, ckptBusy, ckptS := tr.timerStats("store.ckpt_get")
	layer["store.put_calls"] = float64(puts)
	layer["store.put_us_p50"] = 1e6 * percentile(putS, 50)
	layer["store.put_us_p90"] = 1e6 * percentile(putS, 90)
	layer["store.put_busy_s"] = putBusy
	layer["store.put_bytes"] = float64(t.putBytes.Load())
	layer["store.get_calls"] = float64(gets + ckpts)
	layer["store.get_us_p50"] = 1e6 * percentile(getS, 50)
	layer["store.get_busy_s"] = getBusy + ckptBusy
	layer["store.get_hit_ratio"] = ratio(float64(t.getHits.Load()), float64(t.gets.Load()))
	layer["store.ckpt_get_us_p50"] = 1e6 * percentile(ckptS, 50)
}

// timedBackend wraps the disk store of one traced scenario and times
// every call into it. Checkpoint records live under "r/" keys.
type timedBackend struct {
	inner evalcache.Backend
	sc    *scope
	tr    *tracer
	tally *storeTally
}

func (b *timedBackend) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	data, ok := b.inner.Get(key)
	d := time.Since(t0)
	name := "store.get"
	if strings.HasPrefix(key, "r/") {
		name = "store.ckpt_get"
	}
	b.sc.observe(b.tr.timer(name, "store", true), d)
	b.tally.gets.Add(1)
	if ok {
		b.tally.getHits.Add(1)
	}
	return data, ok
}

func (b *timedBackend) Put(key string, payload []byte) {
	t0 := time.Now()
	b.inner.Put(key, payload)
	b.sc.observe(b.tr.timer("store.put", "store", true), time.Since(t0))
	b.tally.putBytes.Add(int64(len(payload)))
}

// httpTally counts what the timed transport saw.
type httpTally struct {
	retries, idle atomic.Int64
}

func (t *httpTally) report(tr *tracer, layer map[string]float64) {
	gets, getBusy, getS := tr.timerStats("httpstore.get")
	puts, putBusy, putS := tr.timerStats("httpstore.put")
	acq, _, _ := tr.timerStats("fabric.acquire")
	hb, _, _ := tr.timerStats("fabric.heartbeat")
	_, _, compS := tr.timerStats("fabric.complete")
	layer["httpstore.get_calls"] = float64(gets)
	layer["httpstore.get_ms_p50"] = 1e3 * percentile(getS, 50)
	layer["httpstore.put_calls"] = float64(puts)
	layer["httpstore.put_ms_p50"] = 1e3 * percentile(putS, 50)
	layer["httpstore.busy_s"] = getBusy + putBusy
	layer["httpstore.retries"] = float64(t.retries.Load())
	layer["fabric.acquire_calls"] = float64(acq)
	layer["fabric.idle_acquires"] = float64(t.idle.Load())
	layer["fabric.heartbeat_calls"] = float64(hb)
	layer["fabric.complete_ms_p50"] = 1e3 * percentile(compS, 50)
}

// timedTransport times every HTTP round trip of the cluster worker and
// the assembling sweep, split by protocol path.
type timedTransport struct {
	inner http.RoundTripper
	sc    *scope
	tr    *tracer
	tally *httpTally
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.inner.RoundTrip(req)
	d := time.Since(t0)
	p := req.URL.Path
	name, layer := "", "fabric"
	switch {
	case strings.HasPrefix(p, "/v1/store/"):
		layer = "httpstore"
		name = "httpstore.get"
		if req.Method == http.MethodPut {
			name = "httpstore.put"
		}
		if err != nil || resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			t.tally.retries.Add(1)
		}
	case p == "/v1/shards/acquire":
		name = "fabric.acquire"
		if err == nil && resp.StatusCode == http.StatusNoContent {
			t.tally.idle.Add(1)
		}
	case p == "/v1/shards/heartbeat":
		name = "fabric.heartbeat"
	case p == "/v1/shards/complete":
		name = "fabric.complete"
	default:
		name = "fabric.other"
	}
	t.sc.observe(t.tr.timer(name, layer, true), d)
	return resp, err
}
