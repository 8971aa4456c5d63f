// Command served exposes the cache-aware co-design pipeline as an
// HTTP/JSON service backed by the persistent result store: schedule
// evaluations, randomized sweeps, and the paper's tables become runtime
// queries instead of batch recomputation (the feedback-scheduling framing
// of Xia et al., see PAPERS.md).
//
// Endpoints:
//
//	GET  /healthz                     liveness
//	GET  /readyz                      readiness (store write probe)
//	GET  /statsz                      per-tier cache hit rates, store traffic, resilience gauges
//	GET  /v1/design?schedule=3,2,3[&schedule=1,1,1][&ways=2,1,1][&budget=tiny]
//	POST /v1/design                   {"schedules": ["3,2,3"], "ways": "2,1,1", "budget": "tiny"}
//	GET  /v1/sweep?n=10[&apps=3][&seed=1][&objective=timing][&exhaustive=1]
//	                    [&jitter=0.2&arrival_seed=7&arrival_cycles=64]      sporadic releases
//	                    [&l2_lines=512&l2_ways=4&l2_hit=10&l2_exclusive=1]  L1+L2 hierarchy
//	POST /v1/sweep                    {"n": 10, "apps": 3, "seed": 1, ...}
//	                                  (a fabric.JobSpec plus "workers", under the job caps)
//	GET  /v1/table/{I|II|III|IV}      rendered paper tables (III/IV accept budget/maxm/tol)
//	GET  /v1/store/{key}              one record of the persistent store (requires -store)
//	GET  /v1/store/?dir=o/<hash>/     200 if a record lies in the directory, 204 if none (requires -store)
//	PUT  /v1/store/                   a batch of up to 256 records, [{"key", "payload"}, ...] (requires -store)
//	POST /v1/shards/...               distributed-sweep lease protocol (requires -store)
//	GET/POST /v1/admin/scrub[?repair=1]  store fsck: classify bad records and torn tails (and quarantine them)
//
// Usage:
//
//	served [-addr :8080] [-store DIR] [-budget tiny]              # coordinator
//	       [-journal DIR] [-journal-fsync always] [-store-sync]   # durability
//	       [-max-queue N] [-request-timeout 30s]                  # degradation bounds
//	served -worker -coordinator URL [-name ID] [-lease-ttl 10s]   # cluster worker
//
// With -journal the coordinator write-ahead logs job submissions and shard
// completions; a restarted coordinator replays the journal and carries on —
// workers re-acquire in-flight leases through TTL expiry, and no shard the
// journal recorded as done is ever re-executed. /readyz (and the shard
// protocol) answer 503 while replay is in progress.
//
// Degradation: with -max-queue set, compute requests arriving while the
// executor queue is deeper than N are shed with 429 + Retry-After instead
// of queueing unboundedly; with -request-timeout set, a compute request
// that outlives the deadline answers 503 + Retry-After while the
// computation finishes into the caches — the retried request lands warm.
// /readyz proves the store directory takes writes (load balancers gate on
// it); /healthz stays pure liveness. Both shed and timeout counts are
// exported on /statsz.
//
// With -store the service doubles as a sweep coordinator: it serves the
// store over /v1/store/ and leases sweep shards over /v1/shards/ to worker
// processes (served -worker), which publish every result back into the
// coordinator's store; cmd/sweep -remote submits jobs and assembles the
// output (see internal/fabric).
//
// Requests batch naturally: /v1/design accepts many schedules per call,
// evaluated concurrently. Concurrent identical requests coalesce through
// the same singleflight evaluation caches the sweep engine uses
// (internal/engine/evalcache), and with -store every design outcome,
// sweep evaluation, scenario checkpoint, and rendered table persists
// across restarts — a warm service answers repeat queries from disk
// without recomputing (visible as disk-tier hits in /statsz). Shutdown is
// graceful: SIGINT/SIGTERM drains in-flight requests, then closes the
// store, before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/evalcache"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/parallel"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/store/httpstore"
	"repro/internal/wcet"
)

var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("addr", ":8080", "listen address")
	storeDir := fs.String("store", "", "persist results to this directory (empty: memory only)")
	budget := fs.String("budget", "tiny", "default design budget: tiny | quick | paper | deep")
	worker := fs.Bool("worker", false, "run as a cluster worker instead of serving")
	coordinator := fs.String("coordinator", "", "coordinator base URL (worker mode)")
	name := fs.String("name", "", "worker identity for shard leases (default host:pid)")
	leaseTTL := fs.Duration("lease-ttl", 0, "shard lease TTL requested from the coordinator (0 = coordinator default)")
	poll := fs.Duration("poll", 0, "worker idle/retry poll interval (0 = TTL/2)")
	drain := fs.Bool("drain", false, "worker exits once the coordinator has no work left")
	throttle := fs.Duration("throttle", 0, "worker pause between scenarios (rate-limits a shared box)")
	maxQueue := fs.Int("max-queue", 0, "shed compute requests (429) when the executor queue exceeds this depth (0 = never shed)")
	requestTimeout := fs.Duration("request-timeout", 0, "answer 503 when a compute request exceeds this deadline (0 = no deadline)")
	journalDir := fs.String("journal", "", "journal coordinator state to this directory (requires -store); jobs and done shards survive restarts")
	journalFsync := fs.String("journal-fsync", "always", "journal fsync policy: always | none")
	journalCompact := fs.Int("journal-compact", 1024, "compact the journal after this many appends (0 = never)")
	storeSync := fs.Bool("store-sync", false, "fsync the store segment after every write (records survive power loss)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if !exp.KnownBudget(*budget) {
		return fmt.Errorf("served: unknown budget %q", *budget)
	}
	// Crash-schedule injection (CHAOS_CRASH): lets the recovery test matrix
	// stage deterministic process deaths in both coordinator and workers.
	if _, err := chaos.ArmFromEnv(); err != nil {
		return err
	}
	if *worker {
		if *coordinator == "" {
			return fmt.Errorf("served: -worker requires -coordinator URL")
		}
		if *name == "" {
			host, _ := os.Hostname()
			*name = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		w := &fabric.Worker{
			Coordinator: *coordinator, Name: *name,
			TTL: *leaseTTL, Poll: *poll, Drain: *drain, Throttle: *throttle,
			Log: stdout,
		}
		stats, err := w.Run(ctx)
		fmt.Fprintf(stdout, "worker %s: %d shard(s), %d scenario(s)\n", *name, stats.Shards, stats.Scenarios)
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		return nil
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.OpenWithOptions(*storeDir, store.Options{SyncPuts: *storeSync}); err != nil {
			return err
		}
	}
	srv := newServer(st, *budget)
	srv.maxQueue = *maxQueue
	srv.reqTimeout = *requestTimeout
	if *journalDir != "" {
		if st == nil {
			return fmt.Errorf("served: -journal requires -store (a journal without durable records recovers bookkeeping for results that no longer exist)")
		}
		var sync fabric.SyncPolicy
		switch *journalFsync {
		case "always":
			sync = fabric.SyncAlways
		case "none":
			sync = fabric.SyncNever
		default:
			return fmt.Errorf("served: unknown -journal-fsync %q (want always | none)", *journalFsync)
		}
		j, err := fabric.OpenJournal(*journalDir, fabric.JournalOptions{Sync: sync, CompactEvery: int64(*journalCompact)})
		if err != nil {
			return err
		}
		defer j.Close()
		srv.journal = j
		srv.replaying.Store(true)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.mux}
	storeDesc := "memory only"
	if st != nil {
		storeDesc = "store " + st.Root()
	}
	fmt.Fprintf(stdout, "served listening on %s (%s, default budget %s)\n", ln.Addr(), storeDesc, *budget)
	if srv.journal != nil {
		// Replay concurrently with serving: /healthz answers immediately,
		// while /readyz and the shard protocol hold 503 until the lease table
		// is rebuilt — retrying workers and drivers ride it out.
		go func() {
			stats, err := srv.shards.Recover(srv.journal)
			if err != nil {
				fmt.Fprintf(stdout, "served: journal recovery failed (staying not-ready): %v\n", err)
				return
			}
			srv.recovered.Store(&stats)
			srv.replaying.Store(false)
			fmt.Fprintf(stdout, "served: journal %s recovered %d job(s), %d done shard(s) from %d record(s)\n",
				srv.journal.Dir(), stats.Jobs, stats.DoneShards, stats.Records)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "served: draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if st != nil {
		// In-flight requests are done: release the store's segment so
		// other handles on the directory know it is final.
		if err := st.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, "served: shut down cleanly")
	return nil
}

// validTol accepts convergence tolerances the searches can actually use: a
// NaN/Inf tol poisons every comparison it reaches, and a non-positive one
// never converges.
func validTol(tol float64) bool {
	return tol > 0 && !math.IsInf(tol, 1)
}

// Store-key schemas of the service's own record kinds. Bump on incompatible
// payload changes; the keys then no longer match and old records age out as
// misses.
const (
	designNamespace = "served/design/v1/"
	tableNamespace  = "served/table/v1/"
)

// server owns the shared caches: frameworks per budget (each framework
// memoizes full schedule evaluations), design summaries and rendered
// tables both two-tiered onto the store. All three coalesce concurrent
// identical requests.
type server struct {
	st            *store.Store // may be nil
	defaultBudget string
	start         time.Time
	mux           *http.ServeMux
	shards        *fabric.Manager // nil when no store: workers need /v1/store

	// Durability wiring (nil/false without -journal). While replaying, the
	// shard protocol and /readyz answer 503: granting leases from a
	// half-rebuilt table could hand out already-done shards.
	journal   *fabric.Journal
	replaying atomic.Bool
	recovered atomic.Pointer[fabric.RecoverStats]

	// Degradation bounds (zero = disabled), read per request so main and
	// tests set them after construction.
	maxQueue   int           // shed compute requests beyond this executor queue depth
	reqTimeout time.Duration // compute request deadline
	// queueDepth reports the executor queue depth the shed check reads
	// (injectable: load tests pin shedding without filling a real executor).
	queueDepth func() int64

	shed     atomic.Int64 // compute requests answered 429 by the shed check
	timeouts atomic.Int64 // compute requests answered 503 by the deadline
	probes   atomic.Int64 // /readyz write-probe sequence

	frameworks *evalcache.Cache[evalcache.StringKey, string, *core.Framework]
	designs    *evalcache.Cache[designKey, string, *designRecord]
	tables     *evalcache.Cache[tableKey, tableKey, string]
}

// backend returns the store as an evalcache.Backend, or a true nil
// interface when no store is configured (a typed-nil *store.Store inside a
// non-nil interface would defeat the cache's nil check).
func (s *server) backend() evalcache.Backend {
	if s.st == nil {
		return nil
	}
	return s.st
}

func newServer(st *store.Store, defaultBudget string) *server {
	s := &server{st: st, defaultBudget: defaultBudget, start: time.Now(), mux: http.NewServeMux()}
	s.queueDepth = func() int64 { return int64(parallel.Default().Stats().QueueDepth) }
	s.frameworks = evalcache.NewCache(func(k evalcache.StringKey) (*core.Framework, error) {
		return exp.DefaultFramework(exp.Budget(string(k)))
	})
	s.designs = evalcache.NewTiered(s.evalDesign, s.backend(), designNamespace, designCodec())
	s.tables = evalcache.NewTiered(s.renderTable, s.backend(), tableNamespace, evalcache.Codec[string]{
		Encode: func(t string) ([]byte, error) { return json.Marshal(t) },
		Decode: func(data []byte) (string, error) {
			var t string
			err := json.Unmarshal(data, &t)
			return t, err
		},
	})

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	// Compute endpoints run behind the degradation envelope (load shedding
	// and request deadlines); observability and fabric endpoints answer in
	// microseconds and stay outside it — a wedged executor must not take
	// down the telemetry that explains why.
	s.mux.HandleFunc("/v1/design", s.compute(s.handleDesign))
	s.mux.HandleFunc("/v1/sweep", s.compute(s.handleSweep))
	s.mux.HandleFunc("GET /v1/table/{table}", s.compute(s.handleTable))
	// The distributed sweep fabric: the raw store over HTTP (workers'
	// persistent tier, and how cmd/sweep -remote assembles results) and the
	// shard-lease protocol. Both need a durable store to mean anything —
	// without one the endpoints answer but refuse: a "cluster" whose records
	// die with the coordinator process would silently recompute forever.
	if st != nil {
		s.shards = fabric.NewManager()
		s.mux.Handle("/v1/store/", httpstore.Handler(st))
		shardsH := fabric.Handler(s.shards)
		s.mux.HandleFunc("/v1/shards/", func(w http.ResponseWriter, r *http.Request) {
			if s.replaying.Load() {
				// 503 is transient to every fabric client; workers and
				// drivers back off and retry until replay finishes.
				writeErr(w, http.StatusServiceUnavailable, "journal replay in progress")
				return
			}
			shardsH.ServeHTTP(w, r)
		})
		s.mux.HandleFunc("/v1/admin/scrub", s.handleScrub)
	} else {
		s.mux.Handle("/v1/store/", httpstore.Handler(nil))
		s.mux.HandleFunc("/v1/shards/", func(w http.ResponseWriter, r *http.Request) {
			writeErr(w, http.StatusServiceUnavailable, "no store configured (run served with -store)")
		})
		s.mux.HandleFunc("/v1/admin/scrub", func(w http.ResponseWriter, r *http.Request) {
			writeErr(w, http.StatusServiceUnavailable, "no store configured (run served with -store)")
		})
	}
	return s
}

// handleScrub is the admin fsck: GET classifies every record and checks
// finished segments for torn tails (read-only); POST with repair=1
// additionally rewrites damaged segments without their bad records and
// torn tails, keeping those bytes under the store's quarantine/.
// Deliberately outside the compute envelope — it is an operator action,
// not user traffic — but O(records): point dashboards at /statsz, not
// here.
func (s *server) handleScrub(w http.ResponseWriter, r *http.Request) {
	repair := false
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		repair = r.URL.Query().Get("repair") == "1"
	default:
		writeErr(w, http.StatusMethodNotAllowed, "scrub wants GET (report) or POST [?repair=1]")
		return
	}
	rep, err := s.st.Scrub(repair)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "scrub: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"report":  rep,
		"bad":     rep.Bad(),
		"repair":  repair,
		"summary": rep.String(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// handleReadyz is readiness, distinct from /healthz liveness: a
// coordinator whose store stopped accepting writes (disk full, permissions
// flipped, volume detached) is alive but must stop receiving cluster
// traffic. The probe creates, writes, closes and removes a sequence-numbered
// temp file in the store's directory, so it proves writes land there
// without appending a record per health check. The name is not a *.seg, so
// neither Open nor Scrub ever sees it. The probe does not fsync: it checks
// that writes are accepted, not that they are durable, and stays cheap
// enough to poll before a coordinator starts.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		// Memory-only mode has no store to fail; the service is as ready as
		// it will ever be.
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "store": false})
		return
	}
	if s.replaying.Load() {
		// The lease table is still being rebuilt from the journal; routing
		// cluster traffic here would grant leases for shards whose done
		// records have not replayed yet.
		writeErr(w, http.StatusServiceUnavailable, "journal replay in progress")
		return
	}
	seq := s.probes.Add(1)
	if err := writeProbe(s.st.Root(), seq); err != nil {
		writeErr(w, http.StatusServiceUnavailable, "store write probe %d failed: %v", seq, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "store": true, "probe": seq})
}

// writeProbe writes probe seq to a temp file in dir and removes it again.
func writeProbe(dir string, seq int64) error {
	f, err := os.CreateTemp(dir, "readyz-*.probe")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, `{"probe":%d}`, seq)
	return errors.Join(err, f.Close(), os.Remove(f.Name()))
}

// compute wraps a compute handler with the degradation envelope:
//
//   - Load shedding: with -max-queue set and the executor queue already
//     deeper than the bound, answer 429 + Retry-After immediately — the
//     request would only deepen the queue and stall everything behind it.
//   - Deadline: with -request-timeout set, a request that outlives it
//     answers 503 + Retry-After. The computation itself is not abandoned —
//     the engine is not preemptible mid-evaluation, and its result lands in
//     the caches either way — so the client's retry finds a warm answer.
func (s *server) compute(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.maxQueue > 0 {
			if depth := s.queueDepth(); depth > int64(s.maxQueue) {
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusTooManyRequests,
					"overloaded: executor queue depth %d exceeds -max-queue %d", depth, s.maxQueue)
				return
			}
		}
		if s.reqTimeout <= 0 {
			h(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		// The handler writes into a buffer, so either its whole response or
		// the timeout answer goes out — never interleaved bytes from both.
		buf := &resilience.ResponseBuffer{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			h(buf, r.WithContext(ctx))
		}()
		select {
		case <-done:
			buf.Flush(w)
		case <-ctx.Done():
			// The handler goroutine keeps running into the buffer (dropped on
			// completion); its side effects — cache fills, checkpoints — are
			// exactly what makes the retry cheap.
			s.timeouts.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable,
				"request exceeded -request-timeout %s; the computation continues and a retry will answer from cache", s.reqTimeout)
		}
	}
}

// cacheStats renders one evalcache tier triple for /statsz.
func cacheStats(st evalcache.Stats) map[string]any {
	return map[string]any{
		"memory_hits": st.Hits,
		"disk_hits":   st.DiskHits,
		"executions":  st.Executions(),
		"lookups":     st.Lookups(),
		"hit_rate":    st.HitRate(),
	}
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	ex := parallel.Default().Stats()
	resp := map[string]any{
		"uptime_s": time.Since(s.start).Seconds(),
		"designs":  cacheStats(s.designs.Stats()),
		"tables":   cacheStats(s.tables.Stats()),
		// The process-wide concurrency governor every compute layer draws
		// from (internal/parallel): live gauges plus lifetime counters.
		"executor": map[string]any{
			"capacity":       ex.Capacity,
			"in_flight":      ex.InFlight,
			"queue_depth":    ex.QueueDepth,
			"peak_in_flight": ex.PeakInFlight,
			"acquired":       ex.Acquired,
			"waited":         ex.Waited,
			"denied":         ex.Denied,
		},
		// The degradation envelope around the compute endpoints: how often
		// load shedding and request deadlines actually fired, and the bounds
		// they enforce (0 = disabled).
		"resilience": map[string]any{
			"shed":               s.shed.Load(),
			"timeouts":           s.timeouts.Load(),
			"max_queue":          s.maxQueue,
			"request_timeout_ms": s.reqTimeout.Milliseconds(),
			"ready_probes":       s.probes.Load(),
		},
	}
	if s.st != nil {
		resp["store"] = s.st.Stats()
		// ApproxLen, not Len: the stats endpoint is polled (workers,
		// dashboards) and must not pay an O(records) segment scan per hit.
		resp["store_records"] = s.st.ApproxLen()
	}
	if s.shards != nil {
		jobs := s.shards.Jobs()
		done, complete := 0, 0
		for _, j := range jobs {
			done += j.Done
			if j.Complete {
				complete++
			}
		}
		resp["shards"] = map[string]any{
			"jobs": len(jobs), "jobs_complete": complete, "shards_done": done,
		}
	}
	if s.journal != nil {
		js := s.journal.Stats()
		jm := map[string]any{
			"appends":          js.Appends,
			"fsyncs":           js.Fsyncs,
			"compactions":      js.Compactions,
			"compact_errors":   js.CompactErrors,
			"snapshot_records": js.SnapshotRecords,
			"log_records":      js.LogRecords,
			"torn_bytes":       js.TornBytes,
			"replaying":        s.replaying.Load(),
		}
		if rs := s.recovered.Load(); rs != nil {
			jm["recovered_jobs"] = rs.Jobs
			jm["recovered_done_shards"] = rs.DoneShards
			jm["replayed_records"] = rs.Records
			jm["replay_skipped"] = rs.Skipped
		}
		resp["journal"] = jm
	}
	writeJSON(w, http.StatusOK, resp)
}

// designRecord is the persistent (and in-memory) summary of one design
// evaluation. Objective values carry their IEEE-754 bits so warm answers
// equal cold ones exactly; settling times may be +Inf (unstable designs),
// which the bit encoding stores losslessly where plain JSON floats cannot.
type designRecord struct {
	Budget   string `json:"budget"`
	Schedule []int  `json:"schedule"`
	Ways     []int  `json:"ways,omitempty"`

	PallBits     uint64  `json:"pall_bits"`
	Pall         float64 `json:"pall"`
	Feasible     bool    `json:"feasible"`
	IdleFeasible bool    `json:"idle_feasible"`

	Apps []designAppRecord `json:"apps,omitempty"`
}

type designAppRecord struct {
	Name            string `json:"name"`
	PerformanceBits uint64 `json:"performance_bits"`
	SettlingBits    uint64 `json:"settling_bits"`
}

func designCodec() evalcache.Codec[*designRecord] {
	return evalcache.Codec[*designRecord]{
		Encode: func(r *designRecord) ([]byte, error) { return json.Marshal(r) },
		Decode: func(data []byte) (*designRecord, error) {
			var r designRecord
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, err
			}
			return &r, nil
		},
	}
}

// designKey identifies one design request. The case-study taskset and the
// budget-name mapping are fixed in code (internal/apps, exp.Budget), so
// budget name + joint point identify the evaluation; designNamespace
// versions that assumption.
type designKey struct {
	budget string
	point  sched.JointSchedule
}

// Key renders the persistent key "b=<budget>|<joint point key>".
func (k designKey) Key() string { return "b=" + k.budget + "|" + k.point.Key() }

// MemKey is the rendered key: the point's slices make the struct itself
// incomparable, and a design costs far more than its key.
func (k designKey) MemKey() (string, error) { return k.Key(), nil }

// evalDesign computes a design record by running the paper's stage-1
// holistic design through the per-budget framework. It runs as a
// singleflight leader under the designs cache, so it executes once per
// distinct key; the admission token makes the leader count as one
// computing goroutine under the process-wide governor — cold designs
// beyond capacity queue FIFO (visible as queue_depth/waited on /statsz)
// while cache hits bypass this function entirely. Holding the token is
// deadlock-free: the leader goroutine holds nothing else, and every layer
// underneath only TryAcquires.
func (s *server) evalDesign(k designKey) (*designRecord, error) {
	exec := parallel.Default()
	granted := exec.Acquire(1)
	defer exec.Release(granted)

	fw, _, err := s.frameworks.Get(evalcache.StringKey(k.budget))
	if err != nil {
		return nil, err
	}
	ev, err := fw.EvaluateJoint(k.point)
	if err != nil {
		return nil, err
	}
	rec := &designRecord{
		Budget:       k.budget,
		Schedule:     []int(ev.Schedule.Clone()),
		Ways:         []int(ev.Ways.Clone()),
		PallBits:     math.Float64bits(ev.Pall),
		Pall:         ev.Pall,
		Feasible:     ev.Feasible,
		IdleFeasible: ev.IdleFeasible,
	}
	for _, a := range ev.Apps {
		rec.Apps = append(rec.Apps, designAppRecord{
			Name:            a.Name,
			PerformanceBits: math.Float64bits(a.Performance),
			SettlingBits:    math.Float64bits(a.Design.SettlingTime),
		})
	}
	return rec, nil
}

// The service designs the case study on the paper platform
// (exp.DefaultFramework): a design point of another length, or a partition
// that does not fit the paper cache, is the caller's fault.
var (
	caseStudyApps = len(apps.CaseStudy())
	paperWays     = wcet.PaperPlatform().Cache.Ways
)

// designRequest is the POST body of /v1/design; the GET form carries the
// same fields as query parameters with schedules semicolon-separated.
type designRequest struct {
	Schedules []string `json:"schedules"`
	Ways      string   `json:"ways,omitempty"`
	Budget    string   `json:"budget,omitempty"`
}

// designResponse is one evaluated point of a design batch. Error is set
// instead of the evaluation fields when the entry's schedule failed to
// parse — other entries of the batch still carry their results.
type designResponse struct {
	Schedule     string    `json:"schedule"`
	Ways         string    `json:"ways,omitempty"`
	Pall         float64   `json:"pall"`
	Feasible     bool      `json:"feasible"`
	IdleFeasible bool      `json:"idle_feasible"`
	Apps         []appJSON `json:"apps,omitempty"`
	Error        string    `json:"error,omitempty"`
}

type appJSON struct {
	Name        string   `json:"name"`
	Performance float64  `json:"performance"`
	SettlingMs  *float64 `json:"settling_ms,omitempty"` // omitted when not finite
}

func (s *server) handleDesign(w http.ResponseWriter, r *http.Request) {
	var req designRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		// Batch via repeated schedule parameters (an unescaped ';' is
		// stripped from query strings by net/http, so it cannot separate).
		for _, part := range q["schedule"] {
			if part = strings.TrimSpace(part); part != "" {
				req.Schedules = append(req.Schedules, part)
			}
		}
		req.Ways = q.Get("ways")
		req.Budget = q.Get("budget")
	case http.MethodPost:
		if err := resilience.DecodeJSON(w, r, &req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad JSON body: %v", err)
			return
		}
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if len(req.Schedules) == 0 {
		writeErr(w, http.StatusBadRequest, "need at least one schedule (e.g. ?schedule=3,2,3)")
		return
	}
	if len(req.Schedules) > maxDesignBatch {
		writeErr(w, http.StatusBadRequest, "at most %d schedules per request", maxDesignBatch)
		return
	}
	if req.Budget == "" {
		req.Budget = s.defaultBudget
	}
	if !exp.KnownBudget(req.Budget) {
		writeErr(w, http.StatusBadRequest, "unknown budget %q", req.Budget)
		return
	}
	var ways sched.Ways
	if req.Ways != "" {
		wsched, err := sched.ParseSchedule(req.Ways, caseStudyApps)
		if err == nil && !sched.Ways(wsched).Valid(caseStudyApps, paperWays) {
			err = fmt.Errorf("partition %v does not fit the %d-way cache", wsched, paperWays)
		}
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad ways: %v", err)
			return
		}
		ways = sched.Ways(wsched)
	}

	// The batch fans out on coordinator goroutines that hold no executor
	// tokens: each either answers from the designs cache immediately (warm
	// requests never queue behind cold compute) or waits on the singleflight
	// leader for its key, whose evaluator acquires the governor's admission
	// token (see evalDesign). Identical points within the batch, across
	// batches, and across concurrent requests coalesce in the cache (and on
	// its disk tier); actual computation stays capped at executor capacity.
	type slot struct {
		rec      *designRecord
		parseErr error // caller's fault: this entry's schedule didn't parse
		evalErr  error // service's fault: the framework/evaluation failed
	}
	slots := make([]slot, len(req.Schedules))
	done := make(chan struct{})
	for i := range req.Schedules {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			m, err := sched.ParseSchedule(req.Schedules[i], caseStudyApps)
			if err != nil {
				slots[i].parseErr = err
				return
			}
			j := sched.JointSchedule{M: m, W: ways.Clone()}
			slots[i].rec, _, slots[i].evalErr = s.designs.Get(designKey{budget: req.Budget, point: j})
		}(i)
	}
	for range req.Schedules {
		<-done
	}

	// An evaluation failure is an internal error, never a 400: report the
	// first one and let the client retry the batch unchanged.
	for i, sl := range slots {
		if sl.evalErr != nil {
			writeErr(w, http.StatusInternalServerError, "schedule %q: %v", req.Schedules[i], sl.evalErr)
			return
		}
	}
	// Parse failures are per-entry: each bad entry carries its own error and
	// the rest of the batch still returns results, under an overall 400.
	status := http.StatusOK
	resp := struct {
		Budget  string           `json:"budget"`
		Results []designResponse `json:"results"`
	}{Budget: req.Budget}
	for i, sl := range slots {
		if sl.parseErr != nil {
			status = http.StatusBadRequest
			resp.Results = append(resp.Results, designResponse{
				Schedule: req.Schedules[i],
				Error:    sl.parseErr.Error(),
			})
			continue
		}
		rec := sl.rec
		dr := designResponse{
			Schedule:     sched.Schedule(rec.Schedule).String(),
			Pall:         math.Float64frombits(rec.PallBits),
			Feasible:     rec.Feasible,
			IdleFeasible: rec.IdleFeasible,
		}
		if len(rec.Ways) > 0 {
			dr.Ways = sched.Ways(rec.Ways).String()
		}
		for _, a := range rec.Apps {
			aj := appJSON{Name: a.Name, Performance: math.Float64frombits(a.PerformanceBits)}
			if st := math.Float64frombits(a.SettlingBits); !math.IsInf(st, 0) && !math.IsNaN(st) {
				ms := st * 1e3
				aj.SettlingMs = &ms
			}
			dr.Apps = append(dr.Apps, aj)
		}
		resp.Results = append(resp.Results, dr)
	}
	writeJSON(w, status, resp)
}

// parseQuery overlays query parameters onto the JSON-named fields of the
// struct v points to (embedded structs included), so a GET request takes
// exactly the names its POST body does.
func parseQuery(q url.Values, v any) error {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f, sf := rv.Field(i), rv.Type().Field(i)
		if sf.Anonymous {
			if err := parseQuery(q, f.Addr().Interface()); err != nil {
				return err
			}
			continue
		}
		name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		text := q.Get(name)
		if text == "" {
			continue
		}
		var err error
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			var n int64
			n, err = strconv.ParseInt(text, 10, 64)
			f.SetInt(n)
		case reflect.Float64:
			var x float64
			x, err = strconv.ParseFloat(text, 64)
			f.SetFloat(x)
		case reflect.Bool:
			var b bool
			b, err = strconv.ParseBool(text)
			f.SetBool(b)
		case reflect.String:
			f.SetString(text)
		}
		if err != nil {
			return fmt.Errorf("bad %s=%q", name, text)
		}
	}
	return nil
}

type sweepRow struct {
	Name      string  `json:"name"`
	Seed      int64   `json:"seed"`
	Apps      int     `json:"apps"`
	Best      string  `json:"best,omitempty"`
	Pall      float64 `json:"pall"`
	Found     bool    `json:"found"`
	Evaluated int     `json:"evaluated"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	DiskHits  int64   `json:"disk_hits"`
}

// Request bounds: the service is long-lived and must survive any single
// request, so batch sizes and search-space dimensions are capped — larger
// workloads belong in cmd/sweep shards sharing the same store.
// The sweep grid itself is capped by fabric.JobSpec.Validate, the same
// check a submitted cluster job passes.
const (
	maxDesignBatch  = 64 // schedules per /v1/design request
	maxSweepWorkers = 32 // scenario-level workers
)

// handleSweep runs one randomized sweep. The request is a fabric.JobSpec —
// the POST body, or the same names as GET query parameters — plus the
// local-only workers count; it passes the job caps a cluster submission
// does, and its defaults (n=10, seed=1) are the service's own.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req struct {
		fabric.JobSpec
		Workers int `json:"workers"`
	}
	req.N, req.Seed, req.Tol, req.Workers = 10, 1, 0.01, 4
	var err error
	switch r.Method {
	case http.MethodGet:
		err = parseQuery(r.URL.Query(), &req)
	case http.MethodPost:
		if err = resilience.DecodeJSON(w, r, &req); err != nil {
			err = fmt.Errorf("bad JSON body: %w", err)
		}
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if err == nil {
		err = req.Validate()
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Workers < 0 || req.Workers > maxSweepWorkers {
		writeErr(w, http.StatusBadRequest, "workers must be in [0, %d] (0 = default)", maxSweepWorkers)
		return
	}
	// Tol defaults above, so a zero here was sent explicitly.
	if !validTol(req.Tol) {
		writeErr(w, http.StatusBadRequest, "tol must be a finite positive number")
		return
	}
	if req.Budget == "" {
		req.Budget = s.defaultBudget
	}
	grid, err := req.Grid()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	scenarios, err := grid.Scenarios()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Admission control: one token for the computing request goroutine
	// (sweeps have no request-level cache in front of them — warmth lives
	// in the engine's store tier, and a fully checkpointed sweep holds the
	// token only briefly); excess concurrent sweeps queue FIFO.
	exec := parallel.Default()
	granted := exec.Acquire(1)
	defer exec.Release(granted)
	// Resume is always on: a sweep the service (or a CLI sharing the store)
	// already ran answers from checkpoint records.
	results, err := engine.Sweep(engine.Config{
		Workers: req.Workers, Store: s.backend(), Resume: true,
	}, scenarios)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}

	rows := make([]sweepRow, 0, len(results))
	found := 0
	for _, res := range results {
		row := sweepRow{
			Name: res.Name, Seed: res.Seed, Apps: res.AppCount,
			Pall: res.BestValue, Found: res.FoundBest,
			Evaluated: res.Evaluated, Hits: res.CacheStats.Hits,
			Misses: res.CacheStats.Misses, DiskHits: res.CacheStats.DiskHits,
		}
		if res.FoundBest {
			row.Best = res.Best.String()
			found++
		}
		rows = append(rows, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"rows":  rows,
		"found": found,
		"total": len(rows),
	})
}

// tableKey identifies one rendered table request.
type tableKey struct {
	table, budget string
	maxM          int
	tol           float64 // validated finite and positive, so == is bit equality
}

// Key renders the persistent key "<table>|b=<budget>|m=<maxM>|tol=<bits>".
func (k tableKey) Key() string {
	return fmt.Sprintf("%s|b=%s|m=%d|tol=%016x", k.table, k.budget, k.maxM, math.Float64bits(k.tol))
}

// MemKey is the key itself: every field is comparable.
func (k tableKey) MemKey() (tableKey, error) { return k, nil }

// renderTable produces the text rendering of one paper table. Like
// evalDesign it is a singleflight leader and acquires the governor's
// admission token for the duration of the render (Table III/IV run full
// searches), so cold table renders count against executor capacity while
// cached renders skip this function entirely.
func (s *server) renderTable(k tableKey) (string, error) {
	exec := parallel.Default()
	granted := exec.Acquire(1)
	defer exec.Release(granted)

	switch k.table {
	case "I":
		rows, err := exp.TableI(apps.CaseStudy(), wcet.PaperPlatform())
		if err != nil {
			return "", err
		}
		return exp.FormatTableI(rows), nil
	case "II":
		return exp.FormatTableII(exp.TableII(apps.CaseStudy())), nil
	case "III":
		fw, _, err := s.frameworks.Get(evalcache.StringKey(k.budget))
		if err != nil {
			return "", err
		}
		t3, err := exp.TableIII(fw, exp.PaperRoundRobin, exp.PaperOptimal)
		if err != nil {
			return "", err
		}
		return exp.FormatTableIII(t3), nil
	case "IV":
		rows, err := exp.PartitionCaseStudyWith(k.maxM, k.tol, engine.Config{
			Workers: 1, Store: s.backend(), Resume: true,
		})
		if err != nil {
			return "", err
		}
		return exp.FormatPartitionTable(rows), nil
	default:
		return "", fmt.Errorf("unknown table %q", k.table)
	}
}

func (s *server) handleTable(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	switch table {
	case "I", "II", "III", "IV":
	default:
		writeErr(w, http.StatusNotFound, "unknown table %q (want I, II, III, or IV)", table)
		return
	}
	q := r.URL.Query()
	budget := q.Get("budget")
	if budget == "" {
		budget = s.defaultBudget
	}
	if !exp.KnownBudget(budget) {
		writeErr(w, http.StatusBadRequest, "unknown budget %q", budget)
		return
	}
	maxM, tol := 6, 0.01
	if v := q.Get("maxm"); v != "" {
		// Table IV runs a maxm^apps search: maxm obeys the same cap as
		// /v1/sweep or a single request could take the service down.
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > fabric.MaxMaxM {
			writeErr(w, http.StatusBadRequest, "maxm must be in [1, %d]", fabric.MaxMaxM)
			return
		}
		maxM = n
	}
	if v := q.Get("tol"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !validTol(f) {
			writeErr(w, http.StatusBadRequest, "tol must be a finite positive number, got %q", v)
			return
		}
		tol = f
	}
	text, _, err := s.tables.Get(tableKey{table: table, budget: budget, maxM: maxM, tol: tol})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"table": table, "text": text})
}
