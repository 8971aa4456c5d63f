// Package engine is the concurrent scenario-sweep subsystem: it evaluates
// batches of scheduling scenarios (randomized N-app tasksets on
// configurable cache platforms, or the paper's fixed case study) over the
// process-wide concurrency governor (internal/parallel), with every
// expensive schedule evaluation deduplicated through the sharded
// memoization cache of internal/engine/evalcache.
//
// Determinism is a hard guarantee: a scenario's entire computation is a pure
// function of its Scenario value (all randomness flows from Scenario.Seed
// through a private rand.Rand, and hybrid walks sharing a cache run
// sequentially), so sweeping with any worker count produces results
// bit-identical to a serial run. engine_test.go asserts this under -race.
//
// Sweeps are optionally persistent and resumable (Config.Store/Resume,
// internal/store): every evaluation cache gains a disk-backed second tier
// keyed by a content hash of the scenario's evaluation space, and each
// completed scenario checkpoints a summary record so a killed sweep — or a
// grid split across processes by contiguous index shards
// (Config.ShardIndex/ShardCount) — resumes bit-identically, skipping
// finished work. Determinism extends across the store: cold-store,
// warm-store, and resumed runs render identical reports.
//
// Consumers: cmd/sweep drives randomized sweeps from the command line,
// cmd/served serves them over HTTP, and internal/exp regenerates the
// paper's Tables II/III/IV through the engine (see README.md and
// docs/ARCHITECTURE.md for the package map).
package engine

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine/evalcache"
	"repro/internal/parallel"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
)

// Objective selects how a scenario scores schedules.
type Objective int

const (
	// ObjectiveTiming scores schedules with a cheap closed-form proxy
	// computed from the derived control timing alone (no plants, no
	// controller design): each app contributes
	// P_i = 1 - (h_bar_i + h_max_i) / (2 t_idle_i), rewarding short mean
	// and worst-case sampling periods. It keeps the paper's tension —
	// longer own bursts amortize the cold start, but stretch every other
	// application's gap — while evaluating in microseconds, so sweeps over
	// thousands of scenarios stay fast.
	ObjectiveTiming Objective = iota
	// ObjectiveDesign runs the paper's full stage-1 pipeline per schedule:
	// holistic controller design of every application through
	// core.Framework (expensive; use small ctrl.DesignOptions budgets for
	// large sweeps).
	ObjectiveDesign
)

func (o Objective) String() string {
	switch o {
	case ObjectiveTiming:
		return "timing"
	case ObjectiveDesign:
		return "design"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ParseObjective is the inverse of Objective.String: the one mapping from
// an objective's name, as the CLIs and the HTTP service spell it, to its
// value.
func ParseObjective(name string) (Objective, error) {
	for _, o := range []Objective{ObjectiveTiming, ObjectiveDesign} {
		if o.String() == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown objective %q (want timing or design)", name)
}

// Scenario describes one sweep unit: a taskset, a platform, and a schedule
// search over it. The zero value plus a Seed is a valid randomized
// three-app scenario on the paper platform.
type Scenario struct {
	Name string // label for reports (default "s<Seed>")
	Seed int64  // root of all scenario randomness

	// Taskset. When Apps is non-empty those applications are used verbatim
	// (e.g. the paper case study); otherwise NumApps random programs are
	// drawn from internal/program/random.go with Spec and analyzed on
	// Platform, and per-app idle budgets and weights are drawn from Seed.
	Apps    []apps.App
	NumApps int                // default 3
	Spec    program.RandomSpec // shape of random programs (zero = defaults)

	Platform wcet.Platform // zero value = wcet.PaperPlatform()

	// Search.
	MaxM      int              // burst-length cap (default 6)
	Starts    int              // random hybrid starts (default 2)
	StartList []sched.Schedule // explicit starts, overriding Starts

	Tolerance  float64 // hybrid acceptance tolerance (default 0.01)
	Exhaustive bool    // also run the exhaustive baseline
	Workers    int     // intra-scenario workers for the exhaustive pass (default 1)

	// Partitioned adds the cache-partition axis: the scenario searches the
	// joint (m_i, w_i) space — burst counts plus dedicated ways per app —
	// instead of schedules alone. The joint space contains the shared
	// subspace, so the joint optimum always dominates the schedule-only
	// one; on single-way platforms the spaces coincide. Results land in the
	// Joint* fields of Result.
	Partitioned bool

	// Cores > 1 adds the placement axis on top of the joint co-design
	// (implying Partitioned): applications are assigned to Cores cores,
	// each with a private cache of the platform's geometry, and the
	// placement x partition x schedule space is searched through
	// internal/search's placement search. The single-core joint results
	// stay in the Joint* fields for comparison; the placement outcome lands
	// in Result.Multicore (plus the uniform-split baseline in
	// Result.MulticoreUniform).
	Cores int

	// BranchBound gives the exact passes of partitioned scenarios an
	// admissible bound to cut with (the searcher is the same either way):
	// identical optima (pinned bit for bit by internal/search and
	// internal/exp), fewer evaluations. For ObjectiveTiming the tight
	// TimingBounder is used; for ObjectiveDesign the objective-agnostic
	// weight bound.
	BranchBound bool

	// Arrival selects the burst release model. The zero value is the
	// paper's periodic model; a sporadic model with nonzero jitter scores
	// schedules against the simulated FCFS timeline of jittered releases
	// (sched.SporadicModel) instead of the closed-form burst gap.
	// Sporadic with zero jitter is normalized back to the zero value, so
	// it is bit-identical to — and shares every store key with — the
	// periodic path. Sporadic arrivals support ObjectiveTiming on the
	// shared cache only (no Partitioned, no Cores > 1).
	Arrival sched.Arrival

	Objective Objective
	Budget    ctrl.DesignOptions // design budget for ObjectiveDesign
}

func (s Scenario) withDefaults() Scenario {
	if s.Name == "" {
		s.Name = fmt.Sprintf("s%d", s.Seed)
	}
	if s.NumApps <= 0 {
		s.NumApps = 3
	}
	if s.Platform.ClockHz == 0 {
		s.Platform = wcet.PaperPlatform()
	}
	if s.MaxM <= 0 {
		s.MaxM = 6
	}
	if s.Starts <= 0 {
		s.Starts = 2
	}
	if s.Tolerance == 0 {
		s.Tolerance = 0.01
	}
	if s.Workers <= 0 {
		s.Workers = 1
	}
	if s.Cores <= 0 {
		s.Cores = 1
	}
	if s.Cores > 1 {
		s.Partitioned = true
	}
	// A sporadic model that cannot deviate from the periodic one (zero
	// jitter) is the periodic model: normalizing it here makes the
	// metamorphic guarantee structural — evaluation, checkpoints, and
	// store keys are those of the periodic scenario, bit for bit. A truly
	// sporadic scenario resolves its cycle count so signatures hash the
	// value the timeline actually uses.
	if s.Arrival.Model == sched.ArrivalSporadic && s.Arrival.Jitter == 0 {
		s.Arrival = sched.Arrival{}
	}
	if s.Arrival.Sporadic() {
		s.Arrival = s.Arrival.WithDefaults()
	}
	return s
}

// Result is the structured outcome of one scenario.
type Result struct {
	Name string
	Seed int64

	// AppCount is the taskset size; unlike len(Timings) it survives the
	// checkpoint round-trip, so reports key on it.
	AppCount int
	// Resumed reports that the summary fields were loaded from a
	// checkpoint record instead of recomputed; per-walk traces (Hybrid,
	// JointHybrid) are not persisted and stay nil on resumed results.
	Resumed bool

	Timings []sched.AppTiming // the (possibly generated) taskset
	Weights []float64         // per-app objective weights, summing to 1

	Best      sched.Schedule // best feasible schedule found
	BestValue float64        // its P_all
	FoundBest bool

	Evaluated  int             // distinct schedules whose evaluation executed
	CacheStats evalcache.Stats // search-level cache effectiveness

	Hybrid     *search.HybridResult
	Exhaustive *search.ExhaustiveResult // nil unless Scenario.Exhaustive

	// Joint co-design outcome (Scenario.Partitioned only). Best/BestValue
	// above mirror BestJoint.M/BestJointValue so schedule-consuming code
	// keeps working; BestJoint carries the winning partition.
	BestJoint       sched.JointSchedule
	JointHybrid     *search.JointHybridResult
	JointExhaustive *search.JointExhaustiveResult // nil unless Scenario.Exhaustive
	// JointPruned counts the subtrees the exact joint pass cut with its
	// bound (Scenario.BranchBound only; 0 without a bound).
	JointPruned int
	PartTimings sched.PartitionTimings // the joint timing table searched

	// Multi-core placement outcome (Scenario.Cores > 1 only): the placement
	// x partition x schedule co-design optimum, and the uniform-split
	// baseline restricted to even per-core way splits.
	Multicore        *search.MulticoreResult
	MulticoreUniform *search.MulticoreResult

	// Framework is the stage-1 evaluator behind ObjectiveDesign scenarios
	// (nil for ObjectiveTiming); exp uses it to regenerate Tables II/III
	// from the winning schedule.
	Framework *core.Framework
}

// RunConfig attaches the optional persistence layer to a scenario run.
// The zero value runs fully in memory.
type RunConfig struct {
	// Store, when non-nil, is the persistent tier (internal/store) shared
	// by the scenario's evaluation caches — every executed outcome is
	// written back, and outcomes already on disk are loaded instead of
	// re-executed — and the home of the scenario's checkpoint record.
	Store evalcache.Backend
	// Resume short-circuits the whole scenario when its checkpoint record
	// exists in Store, returning the recorded summary bit-identically.
	Resume bool

	// loadOnly restricts the run to the resume check: build the taskset,
	// load the checkpoint record if present, and return (nil, nil) instead
	// of searching when it is absent. Sweep uses it to render scenarios
	// that belong to other shards.
	loadOnly bool
}

// Run executes one scenario fully in memory. It is deterministic: equal
// Scenario values yield equal Results (modulo pointer identity),
// regardless of how many other scenarios run concurrently.
func Run(scn Scenario) (*Result, error) {
	return RunWith(scn, RunConfig{})
}

// RunWith executes one scenario with an optional persistent store behind
// the evaluation caches. Results are bit-identical across a cold store, a
// warm store, and a checkpoint resume: disk-tier loads are charged to
// walks exactly like executions (see evalcache.Cache.Get), and checkpoint
// records store objective values by their IEEE-754 bits.
func RunWith(scn Scenario, rc RunConfig) (*Result, error) {
	scn = scn.withDefaults()
	if err := scn.Arrival.Validate(); err != nil {
		return nil, fmt.Errorf("engine: scenario %s: %w", scn.Name, err)
	}
	if scn.Arrival.Sporadic() {
		switch {
		case scn.Objective != ObjectiveTiming:
			return nil, fmt.Errorf("engine: scenario %s: sporadic arrivals support ObjectiveTiming only", scn.Name)
		case scn.Partitioned || scn.Cores > 1:
			return nil, fmt.Errorf("engine: scenario %s: sporadic arrivals do not combine with cache partitions or multi-core", scn.Name)
		}
	}
	if scn.Partitioned && scn.Platform.Hier.Enabled() {
		return nil, fmt.Errorf("engine: scenario %s: cache partitions and hierarchies are separate platform axes", scn.Name)
	}
	rng := rand.New(rand.NewSource(scn.Seed))

	res := &Result{Name: scn.Name, Seed: scn.Seed}

	var (
		eval      search.EvalFunc
		jointEval search.JointEvalFunc // set when scn.Partitioned
	)
	switch scn.Objective {
	case ObjectiveDesign:
		fw, err := designFramework(rng, scn)
		if err != nil {
			return nil, err
		}
		res.Framework = fw
		res.Timings = fw.Timings
		res.Weights = weightsOf(fw.Apps)
		eval = fw.EvalFunc()
		if scn.Partitioned {
			res.PartTimings = fw.PartTimings
			jointEval = fw.JointEvalFunc()
		}
	case ObjectiveTiming:
		pt, weights, err := timingTable(rng, scn)
		if err != nil {
			return nil, err
		}
		res.Timings, res.Weights = pt.Shared, weights
		if scn.Arrival.Sporadic() {
			eval = SporadicTimingEval(res.Timings, res.Weights, scn.Arrival)
		} else {
			eval = TimingEval(res.Timings, res.Weights)
		}
		if scn.Partitioned {
			res.PartTimings = pt
			jointEval = JointTimingEval(pt, weights)
		}
	default:
		return nil, fmt.Errorf("engine: unknown objective %v", scn.Objective)
	}

	res.AppCount = len(res.Timings)

	starts := scn.StartList
	if len(starts) == 0 {
		starts = RandomStarts(rng, res.Timings, scn.Starts, scn.MaxM)
	}
	if len(starts) == 0 {
		return nil, fmt.Errorf("engine: scenario %s: no idle-feasible start found", scn.Name)
	}

	// Persistence: the evaluation namespace and the checkpoint key are
	// content hashes of the resolved taskset and search parameters, so they
	// are only computable here, after taskset generation. A checkpoint hit
	// returns the recorded summary grafted onto the freshly built taskset
	// (timings, weights, framework are deterministic and cheap relative to
	// the search they replace).
	var ns, ckptKey string
	if rc.Store != nil {
		ns = evalNamespace(scn, res)
		ckptKey = resultKey(scn, res, starts)
		if rc.Resume || rc.loadOnly {
			if rec, ok := loadRecord(rc.Store, ckptKey); ok {
				loaded := fromRecord(scn, rec)
				loaded.Timings = res.Timings
				loaded.Weights = res.Weights
				loaded.PartTimings = res.PartTimings
				loaded.Framework = res.Framework
				loaded.AppCount = res.AppCount
				return loaded, nil
			}
		}
	}
	if rc.loadOnly {
		return nil, nil
	}

	var err error
	if scn.Partitioned {
		err = runJoint(scn, res, jointEval, starts, rc.Store, ns)
	} else {
		// One search-level cache spans the hybrid walks and the exhaustive
		// pass. For ObjectiveDesign the framework underneath additionally
		// memoizes full *ScheduleEval results (shared with table
		// regeneration); this outer layer stores only the small Outcome per
		// schedule and is what provides deterministic per-walk evaluation
		// attribution and the hit/miss statistics reported in Result. With a
		// store attached it grows the persistent second tier.
		cache := search.NewTiered(eval, rc.Store, ns)
		res.Hybrid, res.Exhaustive, res.Best, err = runSearch(scn, res, cache,
			func(opt search.Options) (*search.HybridResult, error) {
				return search.Hybrid(eval, res.Timings, starts, opt)
			},
			func() (*search.ExhaustiveResult, error) {
				return search.ExhaustiveCached(cache, res.Timings, scn.MaxM, scn.Workers)
			})
	}
	if err != nil {
		return nil, err
	}
	if rc.Store != nil {
		saveRecord(rc.Store, ckptKey, res)
	}
	return res, nil
}

// runSearch is the one search arm of RunWith, for the schedule and the
// joint space alike: the hybrid walks and (Scenario.Exhaustive) the exact
// pass run through one cache, and the exact optimum replaces the hybrid
// one only when strictly better. It sets res's value, evaluation and cache
// fields and returns both searches' results plus the winning point.
func runSearch[P search.Point[P]](scn Scenario, res *Result, cache *search.PointCache[P],
	hybrid func(search.HybridOptions[P]) (*search.MultiStart[P], error),
	exact func() (*search.Enumeration[P], error),
) (hy *search.MultiStart[P], ex *search.Enumeration[P], best P, err error) {
	hy, err = hybrid(search.HybridOptions[P]{Tolerance: scn.Tolerance, MaxM: scn.MaxM, Cache: cache})
	if err != nil {
		return nil, nil, best, fmt.Errorf("engine: scenario %s: hybrid: %w", scn.Name, err)
	}
	best, res.BestValue, res.FoundBest = hy.Best, hy.BestValue, hy.FoundBest
	if scn.Exhaustive {
		if ex, err = exact(); err != nil {
			return nil, nil, best, fmt.Errorf("engine: scenario %s: exhaustive: %w", scn.Name, err)
		}
		if ex.FoundBest && (!res.FoundBest || ex.BestValue > res.BestValue) {
			best, res.BestValue, res.FoundBest = ex.Best, ex.BestValue, true
		}
	}
	res.Evaluated = cache.Len()
	res.CacheStats = cache.Stats()
	return hy, ex, best, nil
}

// runJoint is the Partitioned arm of Run: runSearch over the joint box,
// whose exact pass cuts with a bound when the scenario asks for one. With
// a store attached the cache gains the persistent tier under the
// scenario's evaluation namespace. For Cores > 1 it additionally runs the
// placement co-design (and its uniform-split baseline) over a core-point
// cache sharing the same namespace — core-point keys carry a "c[...]|"
// prefix no single-core key can produce.
func runJoint(scn Scenario, res *Result, eval search.JointEvalFunc, starts []sched.Schedule, backend evalcache.Backend, ns string) error {
	// The admissible bound behind every exact pass of this scenario but the
	// uniform baseline (none without Scenario.BranchBound): the tight timing
	// closed form for ObjectiveTiming, the objective-agnostic weight bound
	// (P_i <= 1) for ObjectiveDesign.
	var bounder search.Bounder
	if scn.BranchBound {
		if scn.Objective == ObjectiveTiming {
			bounder = TimingBounder(res.PartTimings, res.Weights, scn.MaxM)
		} else {
			bounder = search.TrivialBounder(res.Weights)
		}
	}

	jointStarts := JointStarts(res.PartTimings, starts)
	cache := search.NewTiered(eval, backend, ns)
	var err error
	res.JointHybrid, res.JointExhaustive, res.BestJoint, err = runSearch(scn, res, cache,
		func(opt search.JointOptions) (*search.JointHybridResult, error) {
			return search.JointHybrid(eval, res.PartTimings, jointStarts, opt)
		},
		func() (*search.JointExhaustiveResult, error) {
			return search.JointExact(cache, res.PartTimings, bounder, scn.MaxM, scn.Workers)
		})
	if err != nil {
		return err
	}
	if res.JointExhaustive != nil {
		res.JointPruned = res.JointExhaustive.Pruned
	}
	res.Best = res.BestJoint.M

	if scn.Cores > 1 {
		return runMulticore(scn, res, bounder, backend, ns)
	}
	return nil
}

// runMulticore is the Cores > 1 arm: one placement search returns the
// placement x partition x schedule co-design and its uniform-split
// baseline, both over one core-point cache so the baseline reuses every
// evaluation the co-design made.
func runMulticore(scn Scenario, res *Result, bounder search.Bounder, backend evalcache.Backend, ns string) error {
	var coreEval search.CoreEvalFunc
	if scn.Objective == ObjectiveDesign {
		coreEval = res.Framework.MulticoreEvalFunc()
	} else {
		coreEval = MulticoreTimingEval(res.PartTimings, res.Weights)
	}
	mcCache := search.NewTiered(coreEval, backend, ns)
	var err error
	res.Multicore, res.MulticoreUniform, err = search.MulticoreExact(mcCache, res.PartTimings, scn.Cores, scn.MaxM, bounder)
	if err != nil {
		return fmt.Errorf("engine: scenario %s: multicore co-design: %w", scn.Name, err)
	}

	res.Evaluated += mcCache.Len()
	st := mcCache.Stats()
	res.CacheStats.Hits += st.Hits
	res.CacheStats.Misses += st.Misses
	res.CacheStats.DiskHits += st.DiskHits
	return nil
}

// JointStarts lifts schedule starts into the joint space: every start as a
// shared-cache point, plus — when the platform has enough ways to partition
// at all — a partitioned twin with an even way split (falling back to
// round-robin under the even split when the twin's schedule is infeasible
// at the partition's timings).
func JointStarts(pt sched.PartitionTimings, starts []sched.Schedule) []sched.JointSchedule {
	out := make([]sched.JointSchedule, 0, 2*len(starts))
	for _, m := range starts {
		out = append(out, sched.SharedPoint(m))
	}
	even := sched.EvenWays(pt.Apps(), pt.TotalWays())
	if even == nil {
		return out
	}
	// Dedupe the partitioned twins: duplicate schedule starts, and every
	// infeasible twin falling back to the same round-robin point, would
	// otherwise spawn phantom zero-evaluation walks.
	seen := map[string]bool{}
	for _, m := range starts {
		j := sched.JointSchedule{M: m.Clone(), W: even.Clone()}
		if ok, err := pt.Feasible(j); err != nil || !ok {
			j = sched.JointSchedule{M: sched.RoundRobin(pt.Apps()), W: even.Clone()}
			if ok, err := pt.Feasible(j); err != nil || !ok {
				continue
			}
		}
		if !seen[j.Key()] {
			seen[j.Key()] = true
			out = append(out, j)
		}
	}
	return out
}

// Config tunes a sweep.
type Config struct {
	// Workers bounds scenario-level concurrency (default 1 = serial).
	Workers int

	// Store, when non-nil, persists evaluation outcomes and per-scenario
	// checkpoint records (see RunConfig.Store).
	Store evalcache.Backend
	// Resume skips scenarios whose checkpoint record is already in Store,
	// loading the recorded summary instead of recomputing it.
	Resume bool
	// ShardIndex/ShardCount split the scenario list by contiguous index
	// range so independent processes can divide one grid: shard k of n
	// runs scenarios [k*len/n, (k+1)*len/n). ShardCount <= 1 disables
	// sharding. Scenarios outside this process's shard are loaded from
	// Store when Resume is set and their record exists, and are returned
	// as nil entries otherwise (pending: another shard owns them).
	ShardIndex, ShardCount int
}

// shardRange returns this process's half-open scenario-index range.
func (c Config) shardRange(n int) (lo, hi int) {
	return ShardRange(c.ShardIndex, c.ShardCount, n)
}

// ShardRange returns the half-open scenario-index range [lo, hi) owned by
// shard index of count over an n-scenario grid: the same contiguous split
// Config.ShardIndex/ShardCount uses. It is exported so the distributed
// fabric's lease workers (internal/fabric) carve a leased shard into
// exactly the scenario range a local `-shard index/count` run would own —
// the bit-identical shard-assembly guarantee extends to the cluster only
// because both sides share this one function. count <= 1 means unsharded.
func ShardRange(index, count, n int) (lo, hi int) {
	if count <= 1 {
		return 0, n
	}
	return index * n / count, (index + 1) * n / count
}

// Sweep runs every scenario over the process-wide concurrency governor
// (internal/parallel) and returns results in scenario order: Config.Workers
// caps this sweep's share of the executor, scenarios land in
// index-addressed slots, and the error reduction walks them in index order.
// Because each scenario is deterministic and self-contained, the returned
// slice is identical for any worker count and any governor load — and, with
// a Store attached, across cold-store, warm-store, and resumed runs; the
// first scenario error (in scenario order) aborts the sweep. Entries are
// nil only for scenarios owned by another shard whose record is not (yet)
// in the store.
func Sweep(cfg Config, scenarios []Scenario) ([]*Result, error) {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if cfg.ShardCount > 1 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount) {
		return nil, fmt.Errorf("engine: shard index %d outside [0, %d)", cfg.ShardIndex, cfg.ShardCount)
	}
	lo, hi := cfg.shardRange(len(scenarios))
	results := make([]*Result, len(scenarios))
	errs := make([]error, len(scenarios))
	parallel.Default().ForEach(len(scenarios), workers, func(i int) {
		rc := RunConfig{Store: cfg.Store, Resume: cfg.Resume}
		if i < lo || i >= hi {
			// Another shard owns this scenario; render it from its record
			// if one exists, else leave it pending.
			if cfg.Store == nil {
				return
			}
			rc.loadOnly = true
		}
		results[i], errs[i] = RunWith(scenarios[i], rc)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// appTerm is the closed-form per-application term of ObjectiveTiming,
// P_i = 1 - (hbar + hmax) / (2 t_idle), from an application's mean and
// worst sampling periods: the one place the objective's formula is written.
// An unconstrained application (maxIdle <= 0) is normalized against its
// schedule period instead, so the term stays bounded.
func appTerm(maxIdle, period, hbar, hmax float64) float64 {
	limit := maxIdle
	if limit <= 0 {
		limit = period
	}
	return 1 - (hbar+hmax)/(2*limit)
}

// timingScore is the ObjectiveTiming closed-form score of one schedule
// under one timing vector; every periodic evaluator runs through it, so
// a shared joint point scores bit-identically to its plain schedule.
// It evaluates the derived periods through sched's closed-form helpers
// (identical summation order, so identical bits) instead of materializing
// Derive's slices: this score runs once per point of every enumerated box,
// and the allocation-free path is what lets timing sweeps saturate the
// worker pool instead of the allocator.
func timingScore(timings []sched.AppTiming, weights []float64, s sched.Schedule) (search.Outcome, error) {
	ok, err := sched.IdleFeasible(timings, s)
	if err != nil {
		return search.Outcome{}, err
	}
	if !ok {
		return search.Outcome{Pall: -1, Feasible: false}, nil
	}
	pall := 0.0
	feasible := true
	for i, a := range timings {
		// An unconstrained app is normalized against the hyper-period.
		gap := sched.BurstGap(timings, s, i)
		hyper := sched.DerivedHyperPeriod(a, s[i], gap)
		p := appTerm(a.MaxIdle, hyper, hyper/float64(s[i]), sched.DerivedMaxPeriod(a, s[i], gap))
		if p < 0 {
			feasible = false
		}
		pall += weights[i] * p
	}
	return search.Outcome{Pall: pall, Feasible: feasible}, nil
}

// TimingEval builds the ObjectiveTiming evaluator over a fixed taskset: a
// deterministic closed-form score from the derived timing parameters alone.
func TimingEval(timings []sched.AppTiming, weights []float64) search.EvalFunc {
	return func(s sched.Schedule) (search.Outcome, error) {
		return timingScore(timings, weights, s)
	}
}

// SporadicTimingEval builds the ObjectiveTiming evaluator under a sporadic
// arrival model: appTerm's P_i = 1 - (h_bar + h_max) / (2 t_idle)
// closed form, but with the mean and worst sampling periods measured from
// the simulated jittered timeline instead of derived from the periodic
// burst gap. Schedules whose periodic derivation is already
// idle-infeasible are rejected up front (jitter only delays releases, it
// never shortens periods); a schedule whose *observed* worst period
// overruns the idle budget scores as infeasible too. The evaluator is
// deterministic for fixed (timings, weights, arr), like every other. The
// arrival model is compiled once here — its jitter draws depend only on
// arr — so a call only replays the FCFS walk of its schedule; an invalid
// arr fails every call that passes the idle check.
func SporadicTimingEval(timings []sched.AppTiming, weights []float64, arr sched.Arrival) search.EvalFunc {
	model, modelErr := sched.NewSporadicModel(timings, arr)
	return func(s sched.Schedule) (search.Outcome, error) {
		ok, err := sched.IdleFeasible(timings, s)
		if err != nil {
			return search.Outcome{}, err
		}
		if !ok {
			return search.Outcome{Pall: -1, Feasible: false}, nil
		}
		if modelErr != nil {
			return search.Outcome{}, modelErr
		}
		// Tasksets up to this size keep the stats on the stack.
		var buf [8]sched.ArrivalStats
		stats, err := model.Stats(buf[:0], s)
		if err != nil {
			return search.Outcome{}, err
		}
		pall := 0.0
		feasible := true
		for i, a := range timings {
			st := stats[i]
			if a.MaxIdle > 0 && st.MaxPeriod > a.MaxIdle+1e-12 {
				feasible = false
			}
			p := appTerm(a.MaxIdle, st.MeanPeriod*float64(s[i]), st.MeanPeriod, st.MaxPeriod)
			if p < 0 {
				feasible = false
			}
			pall += weights[i] * p
		}
		return search.Outcome{Pall: pall, Feasible: feasible}, nil
	}
}

// JointTimingEval is TimingEval over the joint co-design space: the score
// of a point is the timing score of its schedule under the timing vector of
// its way allocation (partition contents survive other apps' bursts, so
// partitioned bursts have no cold start). Points whose partition exceeds
// the way budget are infeasible.
func JointTimingEval(pt sched.PartitionTimings, weights []float64) search.JointEvalFunc {
	return func(j sched.JointSchedule) (search.Outcome, error) {
		return pointScore(pt, weights, nil, j)
	}
}

// MulticoreTimingEval is JointTimingEval over the placement axis: a core
// point scores its joint (schedule, ways) point on its application subset's
// rows of the timing table, with the apps' global weights, so per-core
// values sum to a P_all comparable with the single-core numbers.
func MulticoreTimingEval(pt sched.PartitionTimings, weights []float64) search.CoreEvalFunc {
	return func(p search.CorePoint) (search.Outcome, error) {
		if err := search.CheckSubset(p.Apps, pt.Apps()); err != nil {
			return search.Outcome{}, err
		}
		return pointScore(pt, weights, p.Apps, p.Point)
	}
}

// pointScore scores joint point j over the applications idx of pt (every
// application when idx is nil): a partition invalid for them is
// infeasible; otherwise timingScore scores the point's timing rows and
// weights, gathered on the stack (for up to sched.StackApps applications)
// unless they are pt.Shared and weights themselves.
func pointScore(pt sched.PartitionTimings, weights []float64, idx []int, j sched.JointSchedule) (search.Outcome, error) {
	n := pt.Apps()
	if idx != nil {
		n = len(idx)
	}
	if !j.W.Valid(n, pt.TotalWays()) {
		return search.Outcome{Pall: -1, Feasible: false}, nil
	}
	timings, ws := pt.Shared, weights
	if idx != nil || !j.Shared() {
		var (
			tbuf [sched.StackApps]sched.AppTiming
			wbuf [sched.StackApps]float64
		)
		timings, ws = tbuf[:0], wbuf[:0]
		for k := 0; k < n; k++ {
			i := k
			if idx != nil {
				i = idx[k]
			}
			row := pt.Shared
			if !j.Shared() {
				row = pt.ByWays[j.W[k]-1]
			}
			timings = append(timings, row[i])
			ws = append(ws, weights[i])
		}
	}
	return timingScore(timings, ws, j.M)
}

// randomApps is the one random draw behind every randomized taskset:
// NumApps random programs analyzed on the scenario platform, idle budgets
// that keep round-robin feasible while binding at moderate burst lengths,
// and normalized random weights, all drawn from rng in a fixed order (the
// analysis draws nothing). It returns the applications (name, program,
// idle budget and weight; no plant) with their apps.Table timing table,
// every row carrying the idle budgets, and analysis results.
func randomApps(rng *rand.Rand, scn Scenario) ([]apps.App, sched.PartitionTimings, []*wcet.Result, error) {
	scn = scn.withDefaults()
	list := make([]apps.App, scn.NumApps)
	for i := range list {
		list[i] = apps.App{Name: fmt.Sprintf("R%d", i+1), Program: program.Random(rng, scn.Spec)}
	}
	pt, rs, err := apps.Table(list, scn.Platform)
	if err != nil {
		return nil, sched.PartitionTimings{}, nil, fmt.Errorf("engine: random programs: %w", err)
	}
	// Idle budgets: at least the round-robin period (so m = (1,...,1) is
	// always feasible) times a random headroom factor that lets bursts of a
	// few tasks through but binds well before the box edge.
	rr := sched.PeriodLength(pt.Shared, sched.RoundRobin(scn.NumApps))
	for i := range list {
		list[i].MaxIdle = rr * (1.2 + 2.8*rng.Float64())
		pt.Shared[i].MaxIdle = list[i].MaxIdle
		for _, row := range pt.ByWays {
			row[i].MaxIdle = list[i].MaxIdle
		}
	}
	total := 0.0
	for i := range list {
		list[i].Weight = 0.5 + rng.Float64()
		total += list[i].Weight
	}
	for i := range list {
		list[i].Weight /= total
	}
	return list, pt, rs, nil
}

// weightsOf returns the applications' objective weights.
func weightsOf(list []apps.App) []float64 {
	weights := make([]float64, len(list))
	for i, a := range list {
		weights[i] = a.Weight
	}
	return weights
}

// timingTable builds the ObjectiveTiming table of a scenario (defaults
// applied) from its named applications, or from randomApps when it names
// none.
func timingTable(rng *rand.Rand, scn Scenario) (sched.PartitionTimings, []float64, error) {
	var (
		list = scn.Apps
		pt   sched.PartitionTimings
		err  error
	)
	if len(list) == 0 {
		list, pt, _, err = randomApps(rng, scn)
	} else {
		pt, _, err = apps.Table(list, scn.Platform)
	}
	if err != nil {
		return sched.PartitionTimings{}, nil, err
	}
	return pt, weightsOf(list), nil
}

// RandomTaskset draws a scenario's randomized taskset (see randomApps) as
// timings and weights.
func RandomTaskset(rng *rand.Rand, scn Scenario) ([]sched.AppTiming, []float64, error) {
	list, pt, _, err := randomApps(rng, scn)
	if err != nil {
		return nil, nil, err
	}
	return pt.Shared, weightsOf(list), nil
}

// RandomPartitionTaskset draws the same randomized taskset as RandomTaskset
// (identical rng consumption, so the shared timings match bit for bit) and
// returns its whole timing table, the per-way rows included. Way
// partitions are a single-level axis, so a platform with an L2 is rejected.
func RandomPartitionTaskset(rng *rand.Rand, scn Scenario) (sched.PartitionTimings, []float64, error) {
	list, pt, _, err := randomApps(rng, scn)
	if err != nil {
		return sched.PartitionTimings{}, nil, err
	}
	if pt.ByWays == nil {
		return sched.PartitionTimings{}, nil, fmt.Errorf("engine: partitioned taskset: cache partitions and hierarchies are separate platform axes")
	}
	return pt, weightsOf(list), nil
}

// designFramework builds the framework of an ObjectiveDesign scenario
// (defaults applied) over its named applications, or over randomApps' draw
// paired with the case-study plants (cycled) when it names none. The
// random draw's WCET analysis is the framework's: no program is analyzed
// twice.
func designFramework(rng *rand.Rand, scn Scenario) (*core.Framework, error) {
	if len(scn.Apps) > 0 {
		return core.New(scn.Apps, scn.Platform, scn.Budget)
	}
	list, pt, rs, err := randomApps(rng, scn)
	if err != nil {
		return nil, err
	}
	pool := apps.CaseStudy()
	for i := range list {
		base := pool[i%len(pool)]
		list[i].Plant, list[i].SettleDeadline = base.Plant, base.SettleDeadline
		list[i].Ref, list[i].UMax = base.Ref, base.UMax
	}
	return core.FromTable(list, scn.Platform, scn.Budget, pt, rs), nil
}

// RandomStarts draws n idle-feasible start schedules by random upward walks
// from round robin. Starts may repeat for tightly constrained tasksets; the
// schedule-level cache makes duplicates cheap.
func RandomStarts(rng *rand.Rand, timings []sched.AppTiming, n, maxM int) []sched.Schedule {
	apps := len(timings)
	var out []sched.Schedule
	for k := 0; k < n; k++ {
		s := sched.RoundRobin(apps)
		for tries := 0; tries < 3*apps; tries++ {
			i := rng.Intn(apps)
			s[i]++
			if s[i] > maxM {
				s[i]--
				continue
			}
			if ok, err := sched.IdleFeasible(timings, s); err != nil || !ok {
				s[i]--
			}
		}
		out = append(out, s)
	}
	return out
}

// PlatformVariants returns a spread of cache platforms for multi-platform
// sweeps: the paper's direct-mapped baseline, a two-way set-associative
// variant, a two-level L1+L2 hierarchy over the baseline, and a half-size
// cache.
func PlatformVariants() []wcet.Platform {
	paper := wcet.PaperPlatform()

	twoWayLRU := paper
	twoWayLRU.Cache.Ways = 2

	l1l2 := paper
	l1l2.Hier = cachesim.Hierarchy{L2: cachesim.Config{
		Lines:      512,
		LineSize:   paper.Cache.LineSize,
		Ways:       4,
		Policy:     cachesim.LRU,
		HitCycles:  10,
		MissCycles: paper.Cache.MissCycles,
	}}

	half := paper
	half.Cache.Lines = paper.Cache.Lines / 2

	return []wcet.Platform{paper, twoWayLRU, l1l2, half}
}
