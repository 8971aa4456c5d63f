package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/search"
)

// designSeeds are the scenario seeds of the design suite; the last one
// runs the joint co-design. With one random start they walk 10-16
// evaluations each (24 for the joint one), ~100 in all at 35-50 ms each,
// so a pass takes 3.5-5 s and a run fits five or more. Two starts, as in
// the paper, walk 6-30 evaluations per scenario and 57-192 for a joint
// one: a pass of seven took 6-10 s and a run fitted two or three.
var designSeeds = []int64{3, 5, 7, 10, 12, 16, 4}

// designSuite returns the first n design-search scenarios: the paper's case
// study under the given budget, one random hybrid start, no exhaustive
// pass; the last scenario runs the joint co-design on 8way-512.
//
// The suite is fixed and the run seed only orders it. A scenario's cost is
// set by how far its random start walks — 3 to 150 evaluations — so the
// total cost of a seed-drawn suite would spread from seed to seed (21%,
// interquartile distance over median, for suites of seven two-start
// scenarios resampled from 60 measured ones): most of any useful
// regression bound. The full suite has seven scenarios, an odd count, so
// the median of the per-scenario medians is one scenario's.
func designSuite(n, maxM int, budget ctrl.DesignOptions) []engine.Scenario {
	joint := exp.PartitionPlatforms()[3].Platform // 8way-512
	seeds := append(append([]int64(nil), designSeeds[:n-1]...), designSeeds[len(designSeeds)-1])
	suite := make([]engine.Scenario, n)
	for i, seed := range seeds {
		s := exp.CaseStudyScenario(budget, maxM, 0.01)
		s.Name = fmt.Sprintf("d%02d", seed)
		s.Seed = seed
		s.StartList = nil
		s.Starts = 1
		s.Exhaustive = false
		if i == n-1 {
			s.Platform = joint
			s.Partitioned = true
		}
		suite[i] = s
	}
	return suite
}

// minDesignPasses is the fewest passes over the design suite a run makes.
// On the reference machine (2 vCPUs of a shared host) the CPU ran up to 60%
// slower in stretches of 5-15 s, and a scenario's sweep time varied by up
// to ±25% from pass to pass; the median of five or more passes per
// scenario discards the passes such a stretch slowed.
const minDesignPasses = 5

func runDesign(e *env) (*result, error) {
	res := &result{layer: map[string]float64{}}
	n, maxM, budget := len(designSeeds), 6, exp.QuickBudget()
	if e.smoke {
		n, maxM, budget = 2, 3, exp.TinyBudget()
	}
	suite := designSuite(n, maxM, budget)

	// Set-up is the time to the first design answer: the framework of each
	// suite platform (WCET analysis, partition timing tables) and its first
	// holistic design, which also warms the design pools.
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		for _, s := range []engine.Scenario{suite[0], suite[len(suite)-1]} {
			fw, err := core.New(s.Apps, s.Platform, s.Budget)
			if err != nil {
				return nil, err
			}
			if _, err := fw.EvaluateSchedule(sched.RoundRobin(len(s.Apps))); err != nil {
				return nil, err
			}
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}

	var (
		mu       sync.Mutex
		first    = map[int]outcome{}
		untraced float64 // traced runs: summed latency of the reference runs
		traced   float64
		hyEvals  int
		cache    [2]int64 // hits, misses of the traced search caches
	)
	orders := map[int][]int{}
	order := func(i int) int {
		mu.Lock()
		defer mu.Unlock()
		p := i / n
		if orders[p] == nil {
			orders[p] = permutation(e.seed, p, n)
		}
		return orders[p][i%n]
	}
	// check pins every recomputation of a suite scenario to its first
	// result: the engine promises bit-identical results however often and
	// in whatever order scenarios run.
	check := func(k int, o outcome) error {
		mu.Lock()
		defer mu.Unlock()
		if !o.found {
			return fmt.Errorf("%s: no feasible schedule found", suite[k].Name)
		}
		if f, ok := first[k]; !ok {
			first[k] = o
		} else if f != o {
			return fmt.Errorf("%s: result drifted between passes: %v vs %v", suite[k].Name, o, f)
		}
		return nil
	}

	// One caller issues the scenarios one after another, each swept alone:
	// concurrent scenarios would make every latency depend on which other
	// scenario the seeded order paired it with. The holistic designs inside
	// a scenario still fan out over the executor.
	rss := sampleRSS("self")
	before := parallel.Default().Stats()
	l := runLoop(1, -1, minDesignPasses*n, n, e.deadline(1), func(i int) error {
		k := order(i)
		t0 := time.Now()
		r, err := sweepOne(engine.Config{Workers: 1}, suite[k])
		if err != nil {
			return err
		}
		if err := check(k, outcomeOf(r)); err != nil {
			return err
		}
		if e.tr == nil {
			return nil
		}
		tu := time.Since(t0).Seconds()
		t1 := time.Now()
		rc, err := recomposeDesign(e.tr, suite[k])
		if err != nil {
			return err
		}
		tt := time.Since(t1).Seconds()
		if rc.outcome != outcomeOf(r) {
			return fmt.Errorf("%s: traced re-composition %v differs from engine.Sweep %v", suite[k].Name, rc.outcome, outcomeOf(r))
		}
		mu.Lock()
		untraced += tu
		traced += tt
		hyEvals += rc.hybridEvals
		cache[0] += rc.outcome.hits
		cache[1] += rc.outcome.misses
		mu.Unlock()
		return nil
	})
	res.rssMB = rss.median()
	res.account(l, 1)
	meds := unitMedians(l.lat, n, order)
	res.suitePass(n, meds)
	res.info = append(res.info, fmt.Sprintf("design suite %d scenarios, %d passes; median seconds per scenario %.3f", n, l.ops/n, meds))

	// Oracle: a serial engine.Run of a suite scenario equals the swept one.
	r, err := engine.Run(suite[0])
	if err != nil {
		return nil, err
	}
	if err := check(0, outcomeOf(r)); err != nil {
		res.problem("serial run: %v", err)
	}

	if e.tr != nil {
		layer := res.layer
		executorDelta(before, layer)
		layerTimes(e, layer)
		layer["trace.overhead_pct"] = 100 * (ratio(traced, untraced) - 1)
		layer["design.scen_per_s"] = ratio(float64(l.ops), untraced)
		layer["wcet.framework_s"] = e.tr.spanTotal("wcet", "core.New")
		calls, busy, samples := e.tr.timerStats("ctrl.design")
		layer["ctrl.design_calls"] = float64(calls)
		layer["ctrl.design_ms_p50"] = 1e3 * percentile(samples, 50)
		layer["ctrl.design_ms_p90"] = 1e3 * percentile(samples, 90)
		layer["ctrl.busy_s"] = busy
		layer["ctrl.share"] = ratio(busy, e.tr.rootTotal())
		layer["search.hybrid_evals"] = float64(hyEvals)
		layer["evalcache.hit_ratio"] = ratio(float64(cache[0]), float64(cache[0]+cache[1]))
		layer["evalcache.executions"] = float64(cache[1])
	}
	return res, nil
}

// recomposed is a scenario computed from the public calls engine.Run makes
// internally, each wrapped in a span.
type recomposed struct {
	outcome
	hybridEvals int
}

// recomposeDesign re-runs a design-search scenario as core.New,
// engine.RandomStarts, a search cache and the (joint) hybrid walk, with
// the evaluator — one holistic controller design per schedule — timed.
func recomposeDesign(tr *tracer, scn engine.Scenario) (recomposed, error) {
	sc := tr.begin("bench", "design-scenario", scn.Name)
	defer sc.end()
	var (
		fw  *core.Framework
		err error
		out recomposed
	)
	sc.do("wcet", "core.New", func() { fw, err = core.New(scn.Apps, scn.Platform, scn.Budget) })
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(scn.Seed))
	var starts []sched.Schedule
	sc.do("engine", "RandomStarts", func() { starts = engine.RandomStarts(rng, fw.Timings, scn.Starts, scn.MaxM) })
	design := tr.timer("ctrl.design", "ctrl", true)

	if scn.Partitioned {
		inner := fw.JointEvalFunc()
		eval := func(j sched.JointSchedule) (search.Outcome, error) {
			t0 := time.Now()
			o, err := inner(j)
			sc.observe(design, time.Since(t0))
			return o, err
		}
		var js []sched.JointSchedule
		sc.do("engine", "JointStarts", func() { js = engine.JointStarts(fw.PartTimings, starts) })
		var cache *search.JointCache
		sc.do("evalcache", "NewJointCache", func() { cache = search.NewJointCache(eval) })
		var hy *search.JointHybridResult
		sc.do("search", "JointHybrid", func() {
			hy, err = search.JointHybrid(eval, fw.PartTimings, js, search.JointOptions{
				Tolerance: scn.Tolerance, MaxM: scn.MaxM, Cache: cache,
			})
		})
		if err != nil {
			return out, err
		}
		best := hy.Best.M.String()
		if len(hy.Best.W) > 0 {
			best = hy.Best.String()
		}
		st := cache.Stats()
		out.outcome = outcome{best, math.Float64bits(hy.BestValue), hy.FoundBest, cache.Len(), st.Hits, st.Misses}
		out.hybridEvals = hy.TotalEvaluations
		return out, nil
	}

	inner := fw.EvalFunc()
	eval := func(s sched.Schedule) (search.Outcome, error) {
		t0 := time.Now()
		o, err := inner(s)
		sc.observe(design, time.Since(t0))
		return o, err
	}
	var cache *search.Cache
	sc.do("evalcache", "NewCache", func() { cache = search.NewCache(eval) })
	var hy *search.HybridResult
	sc.do("search", "Hybrid", func() {
		hy, err = search.Hybrid(eval, fw.Timings, starts, search.Options{
			Tolerance: scn.Tolerance, MaxM: scn.MaxM, Cache: cache,
		})
	})
	if err != nil {
		return out, err
	}
	st := cache.Stats()
	out.outcome = outcome{hy.Best.String(), math.Float64bits(hy.BestValue), hy.FoundBest, cache.Len(), st.Hits, st.Misses}
	out.hybridEvals = hy.TotalEvaluations
	return out, nil
}
