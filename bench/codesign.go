package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/cachesim"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
)

// codesignClasses names the eight scenario classes of one codesign block,
// in block order.
var codesignClasses = []string{"plain", "l2", "sporadic", "joint_enum", "joint_bb", "mc3", "mc4", "apps5"}

// codesignScenario returns class c of block b: together the classes cover
// every scenario axis under the timing objective.
func codesignScenario(seed int64, b, c int) engine.Scenario {
	pp := exp.PartitionPlatforms()
	paper := wcet.PaperPlatform()
	s := engine.Scenario{
		Name:       fmt.Sprintf("b%d-%s", b, codesignClasses[c]),
		Seed:       splitmix(seed, uint64(8*b+c)),
		Exhaustive: true,
	}
	switch codesignClasses[c] {
	case "plain": // schedule-only, cycling the platform variants
		vs := engine.PlatformVariants()
		s.Platform = vs[b%len(vs)]
	case "l2": // inclusive L2 under the paper L1
		s.Platform = paper
		s.Platform.Hier = cachesim.Hierarchy{L2: cachesim.Config{
			Lines: 512, LineSize: paper.Cache.LineSize, Ways: 4, Policy: cachesim.LRU,
			HitCycles: 10, MissCycles: paper.Cache.MissCycles,
		}}
	case "sporadic":
		s.Arrival = sched.Arrival{Model: sched.ArrivalSporadic, Jitter: 0.2, Seed: s.Seed}
	case "joint_enum":
		s.Platform, s.Partitioned = pp[2].Platform, true
	case "joint_bb":
		s.Platform, s.Partitioned, s.BranchBound = pp[3].Platform, true, true
	case "mc3":
		s.Platform, s.Cores, s.BranchBound = pp[2].Platform, 2, true
	case "mc4":
		s.Platform, s.Cores, s.BranchBound, s.NumApps = pp[2].Platform, 2, true, 4
	case "apps5":
		s.NumApps = 5
	}
	return s
}

// codesignBlocks is the number of blocks in the codesign suite, which a run
// repeats pass after pass: at 20-35 ms a block, a pass takes 2-3.5 s.
const codesignBlocks = 100

// minCodesignPasses is the fewest passes over the codesign suite a run
// makes, so every block's median has samples from across the run.
const minCodesignPasses = 5

func runCodesign(e *env) (*result, error) {
	res := &result{layer: map[string]float64{}}
	const block = 8
	blocks := codesignBlocks
	if e.smoke {
		blocks = 2
	}

	// Set-up is the time to the first answers: one block of every class,
	// serially, which also warms the process. It is the same block in every
	// run, so set-up time does not vary with the seed's tasksets.
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		for c := range codesignClasses {
			if _, err := engine.Run(codesignScenario(0, 0, c)); err != nil {
				return nil, err
			}
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}

	var (
		mu       sync.Mutex
		untraced float64
		traced   float64
		classSec = make([]float64, block)
		taskset  float64
		points   int
		pruned   int
		hyEvals  int
		cache    [3]int64 // hits, misses, disk hits
	)
	tally := func(r *engine.Result) {
		mu.Lock()
		defer mu.Unlock()
		cache[0] += r.CacheStats.Hits
		cache[1] += r.CacheStats.Misses
		cache[2] += r.CacheStats.DiskHits
		pruned += r.JointPruned
		switch {
		case r.Exhaustive != nil:
			points += r.Exhaustive.Evaluated
		case r.JointExhaustive != nil:
			points += r.JointExhaustive.Evaluated
		}
		if r.Multicore != nil {
			points += r.Multicore.Evaluated
			pruned += r.Multicore.SubtreesPruned + r.Multicore.AssignmentsPruned
		}
		if r.Hybrid != nil {
			hyEvals += r.Hybrid.TotalEvaluations
		}
		if r.JointHybrid != nil {
			hyEvals += r.JointHybrid.TotalEvaluations
		}
	}

	// One operation is one block of the suite, swept like cmd/sweep does:
	// engine.Sweep with nproc workers over the process-wide executor.
	rss := sampleRSS("self")
	before := parallel.Default().Stats()
	l := runLoop(1, -1, minCodesignPasses*blocks, blocks, e.deadline(1), func(i int) error {
		b := i % blocks
		scs := make([]engine.Scenario, block)
		for c := range scs {
			scs[c] = codesignScenario(e.seed, b, c)
		}
		t0 := time.Now()
		rs, err := engine.Sweep(engine.Config{Workers: e.workers}, scs)
		if err != nil || e.tr == nil {
			return err
		}
		untraced += time.Since(t0).Seconds()
		for _, r := range rs {
			tally(r)
		}
		// The traced block runs the same scenarios over the same executor,
		// each re-composed from public calls or, for the joint and
		// multi-core classes, traced whole.
		errs := make([]error, block)
		t1 := time.Now()
		parallel.Default().ForEach(block, e.workers, func(c int) {
			ts, secs, err := traceCodesign(e.tr, scs[c], rs[c])
			mu.Lock()
			classSec[c] += secs
			taskset += ts
			mu.Unlock()
			errs[c] = err
		})
		traced += time.Since(t1).Seconds()
		// Joint and multi-core classes are traced whole; their taskset
		// generation is timed separately on the scenario's seed, outside
		// the traced block.
		for _, scn := range scs {
			if scn.Partitioned || scn.Cores > 1 {
				t := time.Now()
				if _, _, err := engine.RandomPartitionTaskset(rand.New(rand.NewSource(scn.Seed)), scn); err != nil {
					return err
				}
				taskset += time.Since(t).Seconds()
			}
		}
		return errors.Join(errs...)
	})
	res.rssMB = rss.median()
	res.account(l, block)
	res.suitePass(block*blocks, unitMedians(l.lat, blocks, func(i int) int { return i % blocks }))
	res.info = append(res.info, fmt.Sprintf("codesign suite %d blocks of %d scenarios, %d passes", blocks, block, l.ops/blocks))

	if err := codesignOracle(e.root); err != nil {
		res.problem("%v", err)
	}

	if e.tr != nil {
		layer := res.layer
		executorDelta(before, layer)
		layerTimes(e, layer)
		layer["trace.overhead_pct"] = 100 * (ratio(traced, untraced) - 1)
		layer["codesign.scen_per_s"] = ratio(float64(block*l.ops), untraced)
		for c, name := range codesignClasses {
			layer["engine.class."+name+"_s"] = classSec[c]
		}
		layer["wcet.taskset_s"] = taskset
		layer["wcet.taskset_share"] = ratio(taskset, sum(classSec))
		calls, busy, _ := e.tr.timerStats("sched.eval")
		layer["sched.eval_calls"] = float64(calls)
		layer["sched.eval_us_mean"] = 1e6 * ratio(busy, float64(calls))
		layer["search.points"] = float64(points)
		layer["search.pruned"] = float64(pruned)
		layer["search.prune_ratio"] = ratio(float64(pruned), float64(points+pruned))
		layer["search.hybrid_evals"] = float64(hyEvals)
		layer["evalcache.hit_ratio"] = ratio(float64(cache[0]), float64(cache[0]+cache[1]))
		layer["evalcache.disk_hits"] = float64(cache[2])
		layer["evalcache.executions"] = float64(cache[1] - cache[2])
	}
	return res, nil
}

// traceCodesign re-runs one codesign scenario traced and checks it against
// its untraced result r. Schedule-only classes are re-composed from public
// calls; joint and multi-core classes are traced whole. It returns the
// seconds the re-composition spent generating the taskset (0 when traced
// whole) and the seconds the traced scenario took.
func traceCodesign(tr *tracer, scn engine.Scenario, r *engine.Result) (taskset, secs float64, err error) {
	t0 := time.Now()
	if !scn.Partitioned && scn.Cores <= 1 {
		rc, err := recomposeTiming(tr, scn)
		secs = time.Since(t0).Seconds()
		if err != nil {
			return 0, secs, err
		}
		if rc.outcome != outcomeOf(r) {
			return 0, secs, fmt.Errorf("%s: traced re-composition %v differs from engine.Sweep %v", scn.Name, rc.outcome, outcomeOf(r))
		}
		return rc.taskset, secs, nil
	}
	sc := tr.begin("engine", "scenario", scn.Name)
	rt, err := sweepOne(engine.Config{Workers: 1}, scn)
	sc.end()
	secs = time.Since(t0).Seconds()
	if err != nil {
		return 0, secs, err
	}
	if outcomeOf(rt) != outcomeOf(r) {
		return 0, secs, fmt.Errorf("%s: traced run %v differs from engine.Sweep %v", scn.Name, outcomeOf(rt), outcomeOf(r))
	}
	return 0, secs, nil
}

// timingRecomposed is a schedule-only timing scenario computed from public
// calls.
type timingRecomposed struct {
	outcome
	taskset float64 // seconds in engine.RandomTaskset
}

// recomposeTiming re-runs a schedule-only timing scenario as
// engine.RandomTaskset, the timing evaluator (timed per call),
// engine.RandomStarts, a search cache, the hybrid walk and the cached
// exhaustive pass — the calls engine.Run makes, in its order.
func recomposeTiming(tr *tracer, scn engine.Scenario) (timingRecomposed, error) {
	var out timingRecomposed
	sc := tr.begin("bench", "timing-scenario", scn.Name)
	defer sc.end()
	rng := rand.New(rand.NewSource(scn.Seed))
	var (
		timings []sched.AppTiming
		weights []float64
		err     error
	)
	t0 := time.Now()
	sc.do("wcet", "RandomTaskset", func() { timings, weights, err = engine.RandomTaskset(rng, scn) })
	out.taskset = time.Since(t0).Seconds()
	if err != nil {
		return out, err
	}
	inner := engine.TimingEval(timings, weights)
	if scn.Arrival.Sporadic() {
		inner = engine.SporadicTimingEval(timings, weights, scn.Arrival.WithDefaults())
	}
	tm := tr.timer("sched.eval", "sched", false)
	eval := func(s sched.Schedule) (search.Outcome, error) {
		t0 := time.Now()
		o, err := inner(s)
		sc.observe(tm, time.Since(t0))
		return o, err
	}
	const maxM, starts, tol = 6, 2, 0.01 // engine defaults, unset in codesign scenarios
	var ss []sched.Schedule
	sc.do("engine", "RandomStarts", func() { ss = engine.RandomStarts(rng, timings, starts, maxM) })
	var cache *search.Cache
	sc.do("evalcache", "NewCache", func() { cache = search.NewCache(eval) })
	var hy *search.HybridResult
	sc.do("search", "Hybrid", func() {
		hy, err = search.Hybrid(eval, timings, ss, search.Options{Tolerance: tol, MaxM: maxM, Cache: cache})
	})
	if err != nil {
		return out, err
	}
	best, value, found := hy.Best, hy.BestValue, hy.FoundBest
	var ex *search.ExhaustiveResult
	sc.do("search", "ExhaustiveCached", func() { ex, err = search.ExhaustiveCached(cache, timings, maxM, 1) })
	if err != nil {
		return out, err
	}
	if ex.FoundBest && (!found || ex.BestValue > value) {
		best, value, found = ex.Best, ex.BestValue, true
	}
	st := cache.Stats()
	out.outcome = outcome{best.String(), math.Float64bits(value), found, cache.Len(), st.Hits, st.Misses}
	return out, nil
}

// codesignOracle regenerates Tables I, IV, V and VI and compares their
// renderings byte for byte with the repository's golden files.
func codesignOracle(root string) error {
	tables := []struct {
		golden string
		render func() (string, error)
	}{
		{"table1.golden", func() (string, error) {
			rows, err := exp.TableI(apps.CaseStudy(), wcet.PaperPlatform())
			return exp.FormatTableI(rows), err
		}},
		{"partition.golden", func() (string, error) {
			rows, err := exp.PartitionCaseStudy(6, 0.01)
			return exp.FormatPartitionTable(rows), err
		}},
		{"multicore.golden", func() (string, error) {
			rows, err := exp.MulticoreCaseStudy(6, 0.01, 2)
			return exp.FormatMulticoreTable(rows), err
		}},
		{"tablevi.golden", func() (string, error) {
			rows, err := exp.ScenarioDiversityCaseStudy(6, 0.01)
			return exp.FormatTableVI(rows), err
		}},
	}
	for _, t := range tables {
		want, err := os.ReadFile(filepath.Join(root, "internal", "exp", "testdata", t.golden))
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		got, err := t.render()
		if err != nil {
			return fmt.Errorf("oracle %s: %w", t.golden, err)
		}
		if got != string(want) {
			return fmt.Errorf("oracle: rendering differs from %s:\n%s", t.golden, got)
		}
	}
	return nil
}
