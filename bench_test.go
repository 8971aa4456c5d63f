// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation plus the design-choice ablations (see README.md
// for the experiment map). Custom metrics report the reproduced quantities
// (settling times, performance indices, evaluation counts) alongside the
// usual ns/op.
package repro

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/store"
	"repro/internal/wcet"
)

func benchBudget() ctrl.DesignOptions {
	var opt ctrl.DesignOptions
	opt.Swarm.Particles = 8
	opt.Swarm.Iterations = 10
	return opt
}

func benchFramework(b *testing.B) *core.Framework {
	b.Helper()
	fw, err := core.New(apps.CaseStudy(), wcet.PaperPlatform(), benchBudget())
	if err != nil {
		b.Fatal(err)
	}
	return fw
}

// BenchmarkTableI regenerates Table I: the cache-aware WCET analysis of the
// three case-study programs (cold WCET, guaranteed reduction, warm WCET).
func BenchmarkTableI(b *testing.B) {
	study := apps.CaseStudy()
	plat := wcet.PaperPlatform()
	var rows []exp.TableIRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.TableI(study, plat)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].ColdUs, "C1-cold-us")
	b.ReportMetric(rows[0].ReductionUs, "C1-reduction-us")
	b.ReportMetric(rows[2].WarmUs, "C3-warm-us")
}

// BenchmarkTableIII regenerates Table III: settling-time comparison between
// the cache-oblivious round robin and a cache-aware schedule.
func BenchmarkTableIII(b *testing.B) {
	var res *exp.TableIIIResult
	for i := 0; i < b.N; i++ {
		fw := benchFramework(b)
		var err error
		res, err = exp.TableIII(fw, exp.PaperRoundRobin, sched.Schedule{2, 2, 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Rows[0].SettleBaseMs, "C1-rr-ms")
	b.ReportMetric(res.Rows[0].SettleOptMs, "C1-opt-ms")
	b.ReportMetric(res.PallOpt-res.PallBase, "Pall-gain")
}

// BenchmarkFigure6 regenerates the Fig. 6 response trajectories of all
// applications under both compared schedules.
func BenchmarkFigure6(b *testing.B) {
	var series []exp.Figure6Series
	for i := 0; i < b.N; i++ {
		fw := benchFramework(b)
		fw.ReportDtMax = 10e-6
		var err error
		series, err = exp.Figure6(fw, exp.PaperRoundRobin, sched.Schedule{2, 2, 2})
		if err != nil {
			b.Fatal(err)
		}
		if err := exp.WriteFigure6CSV(io.Discard, series); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(series)), "series")
	b.ReportMetric(float64(len(series[0].T)), "points-per-series")
}

// BenchmarkSearchHybrid reproduces the Section V hybrid-search experiment:
// two parallel walks from the paper's random starts.
func BenchmarkSearchHybrid(b *testing.B) {
	var res *search.HybridResult
	for i := 0; i < b.N; i++ {
		fw := benchFramework(b)
		var err error
		res, err = search.Hybrid(fw.EvalFunc(), fw.Timings, exp.PaperStarts, search.Options{Tolerance: 0.01, MaxM: 6})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Runs[0].Evaluations), "evals-start1")
	b.ReportMetric(float64(res.Runs[1].Evaluations), "evals-start2")
	b.ReportMetric(res.BestValue, "Pall-best")
}

// BenchmarkSearchExhaustive is the brute-force baseline of the same
// experiment over a reduced box (the reduced box keeps the harness
// runnable in minutes; see README.md for the full-box experiment).
func BenchmarkSearchExhaustive(b *testing.B) {
	var res *search.ExhaustiveResult
	for i := 0; i < b.N; i++ {
		fw := benchFramework(b)
		var err error
		res, err = search.Exhaustive(fw.EvalFunc(), fw.Timings, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Evaluated), "schedules")
	b.ReportMetric(float64(res.Feasible), "feasible")
}

// BenchmarkAblationHolistic quantifies the value of designing all burst
// gains together versus per-mode in isolation.
func BenchmarkAblationHolistic(b *testing.B) {
	study := apps.CaseStudy()
	plat := wcet.PaperPlatform()
	timings, _, err := apps.Timings(study, plat)
	if err != nil {
		b.Fatal(err)
	}
	derived, err := sched.Derive(timings, sched.Schedule{2, 2, 2})
	if err != nil {
		b.Fatal(err)
	}
	var holistic, perMode *ctrl.Design
	for i := 0; i < b.N; i++ {
		holistic, err = ctrl.DesignHolistic(study[0].Plant, derived[0], study[0].Constraints(), benchBudget())
		if err != nil {
			b.Fatal(err)
		}
		perMode, err = ctrl.DesignPerMode(study[0].Plant, derived[0], study[0].Constraints(), benchBudget())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(holistic.SettlingTime*1e3, "holistic-ms")
	b.ReportMetric(perMode.SettlingTime*1e3, "permode-ms")
}

// BenchmarkAblationCacheOblivious evaluates the same burst schedule with
// cache-reuse-aware WCETs versus cold-only WCETs (as a cache-oblivious
// designer would have to assume), isolating the value of the cache model.
func BenchmarkAblationCacheOblivious(b *testing.B) {
	study := apps.CaseStudy()
	plat := wcet.PaperPlatform()
	aware, _, err := apps.Timings(study, plat)
	if err != nil {
		b.Fatal(err)
	}
	oblivious := make([]sched.AppTiming, len(aware))
	copy(oblivious, aware)
	for i := range oblivious {
		oblivious[i].WarmWCET = oblivious[i].ColdWCET
	}
	s := sched.Schedule{2, 2, 2}
	var pAware, pObliv float64
	for i := 0; i < b.N; i++ {
		pAware = evalWithTimings(b, study, aware, s)
		pObliv = evalWithTimings(b, study, oblivious, s)
	}
	b.ReportMetric(pAware, "Pall-cache-aware")
	b.ReportMetric(pObliv, "Pall-cache-oblivious")
}

func evalWithTimings(b *testing.B, study []apps.App, timings []sched.AppTiming, s sched.Schedule) float64 {
	b.Helper()
	derived, err := sched.Derive(timings, s)
	if err != nil {
		b.Fatal(err)
	}
	total := 0.0
	for i, app := range study {
		opt := benchBudget()
		opt.Swarm.Seed = int64(i + 1)
		d, err := ctrl.DesignHolistic(app.Plant, derived[i], app.Constraints(), opt)
		if err != nil {
			b.Fatal(err)
		}
		total += app.Weight * d.Performance
	}
	return total
}

// BenchmarkAblationTolerance compares the hybrid search with and without
// the simulated-annealing-style acceptance tolerance.
func BenchmarkAblationTolerance(b *testing.B) {
	var with, without *search.HybridResult
	for i := 0; i < b.N; i++ {
		fwA := benchFramework(b)
		var err error
		with, err = search.Hybrid(fwA.EvalFunc(), fwA.Timings, []sched.Schedule{{1, 1, 1}}, search.Options{Tolerance: 0.02, MaxM: 5})
		if err != nil {
			b.Fatal(err)
		}
		fwB := benchFramework(b)
		without, err = search.Hybrid(fwB.EvalFunc(), fwB.Timings, []sched.Schedule{{1, 1, 1}}, search.Options{Tolerance: 0, MaxM: 5})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(with.BestValue, "Pall-with-tolerance")
	b.ReportMetric(without.BestValue, "Pall-no-tolerance")
	b.ReportMetric(float64(with.Runs[0].Evaluations), "evals-with-tolerance")
}

// BenchmarkAblationReplacement measures how the replacement policy changes
// the guaranteed cache reuse on a 2-way version of the platform cache.
func BenchmarkAblationReplacement(b *testing.B) {
	study := apps.CaseStudy()
	policies := []cachesim.Policy{cachesim.LRU, cachesim.FIFO, cachesim.PLRU}
	reused := make([]float64, len(policies))
	for i := 0; i < b.N; i++ {
		for pi, pol := range policies {
			plat := wcet.PaperPlatform()
			plat.Cache.Ways = 2
			plat.Cache.Policy = pol
			total := 0
			for _, a := range study {
				res, err := wcet.Analyze(a.Program, plat)
				if err != nil {
					b.Fatal(err)
				}
				total += int(res.ReductionCycles)
			}
			reused[pi] = float64(total)
		}
	}
	b.ReportMetric(reused[0], "LRU-reduction-cycles")
	b.ReportMetric(reused[1], "FIFO-reduction-cycles")
	b.ReportMetric(reused[2], "PLRU-reduction-cycles")
}

// BenchmarkHybridSharedCache measures the sweep engine's memoization win on
// multi-start hybrid search: the same four overlapping starts run once with
// private per-start caches and once through one shared sharded cache. The
// evaluator here runs the holistic design directly with NO other caching
// layer underneath (unlike core.Framework, which memoizes internally), so
// the evals-* metrics count real controller-design executions: the shared
// cache must come in below the private total because no walk re-runs a
// design any earlier walk already paid for.
func BenchmarkHybridSharedCache(b *testing.B) {
	study := apps.CaseStudy()
	plat := wcet.PaperPlatform()
	timings, _, err := apps.Timings(study, plat)
	if err != nil {
		b.Fatal(err)
	}
	uncachedEval := func(executed *int64) search.EvalFunc {
		return func(s sched.Schedule) (search.Outcome, error) {
			atomic.AddInt64(executed, 1)
			derived, err := sched.Derive(timings, s)
			if err != nil {
				return search.Outcome{}, err
			}
			pall := 0.0
			feasible := true
			for i, app := range study {
				opt := benchBudget()
				opt.Swarm.Seed = int64(i + 1)
				d, err := ctrl.DesignHolistic(app.Plant, derived[i], app.Constraints(), opt)
				if err != nil {
					return search.Outcome{}, err
				}
				pall += app.Weight * d.Performance
				if !d.Feasible || d.Performance < 0 {
					feasible = false
				}
			}
			return search.Outcome{Pall: pall, Feasible: feasible}, nil
		}
	}
	starts := []sched.Schedule{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2}}
	opt := search.Options{Tolerance: 0.01, MaxM: 4}
	var execPrivate, execShared int64
	var shared *search.HybridResult
	for i := 0; i < b.N; i++ {
		execPrivate, execShared = 0, 0
		evalP := uncachedEval(&execPrivate)
		if _, err := search.Hybrid(evalP, timings, starts, opt); err != nil {
			b.Fatal(err)
		}
		evalS := uncachedEval(&execShared)
		optShared := opt
		optShared.Cache = search.NewCache(evalS)
		var err error
		shared, err = search.Hybrid(evalS, timings, starts, optShared)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(execPrivate), "designs-private")
	b.ReportMetric(float64(execShared), "designs-shared")
	b.ReportMetric(float64(execPrivate-execShared), "designs-saved")
	b.ReportMetric(100*shared.CacheStats.HitRate(), "hit-rate-pct")
}

// BenchmarkSweepSerial and BenchmarkSweepParallel run the same randomized
// scenario batch (timing objective, exhaustive baseline on) serially and
// over the engine's worker pool; comparing their ns/op gives the wall-clock
// speedup while the results stay bit-identical (engine_test.go asserts it).
func benchSweepScenarios() []engine.Scenario {
	scns := make([]engine.Scenario, 16)
	for i := range scns {
		scns[i] = engine.Scenario{Seed: int64(i + 1), MaxM: 6, Exhaustive: true}
	}
	return scns
}

func BenchmarkSweepSerial(b *testing.B) {
	scns := benchSweepScenarios()
	var results []*engine.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = engine.Sweep(engine.Config{Workers: 1}, scns)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSweep(b, results)
}

// BenchmarkSweepParallel is the scaling curve of the governor-backed sweep:
// the same scenario batch at 1, 2, 4, and GOMAXPROCS workers (the
// GOMAXPROCS point is skipped when it duplicates one of the fixed counts;
// the fixed counts always run — on a narrow machine the points above
// GOMAXPROCS measure the governor's behavior at saturation, not extra
// parallelism). Results are bit-identical at every point; only wall-clock
// may differ.
func BenchmarkSweepParallel(b *testing.B) {
	scns := benchSweepScenarios()
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var results []*engine.Result
			for i := 0; i < b.N; i++ {
				var err error
				results, err = engine.Sweep(engine.Config{Workers: workers}, scns)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSweep(b, results)
		})
	}
}

func reportSweep(b *testing.B, results []*engine.Result) {
	b.Helper()
	var evals, hits, lookups int64
	for _, r := range results {
		evals += r.CacheStats.Misses
		hits += r.CacheStats.Hits
		lookups += r.CacheStats.Lookups()
	}
	b.ReportMetric(float64(evals), "distinct-evals")
	if lookups > 0 {
		b.ReportMetric(100*float64(hits)/float64(lookups), "hit-rate-pct")
	}
}

// BenchmarkStoredSweepWarm sweeps a timing grid (16 scenarios of the
// persist-sweep workload's shape: four platform variants, exhaustive pass
// on) serially over a warm disk store, without resume: every evaluation is
// a read of the persistent tier, decoded from its outcome record, and the
// cold sweep that fills the store runs before the timer starts.
func BenchmarkStoredSweepWarm(b *testing.B) {
	scns, err := engine.Grid{N: 16, Seed: 1, Platforms: 4, Exhaustive: true}.Scenarios()
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if _, err := engine.Sweep(engine.Config{Workers: 1, Store: st}, scns); err != nil {
		b.Fatal(err)
	}
	var results []*engine.Result
	for b.Loop() {
		results, err = engine.Sweep(engine.Config{Workers: 1, Store: st}, scns)
		if err != nil {
			b.Fatal(err)
		}
	}
	var diskHits, execs int64
	for _, r := range results {
		diskHits += r.CacheStats.DiskHits
		execs += r.CacheStats.Executions()
	}
	if execs != 0 {
		b.Fatalf("warm sweep executed %d evaluations", execs)
	}
	b.ReportMetric(float64(diskHits), "disk-hits")
}

// BenchmarkJointCaseStudy regenerates the partitioned case study (Table
// IV): the joint cache-partition + schedule co-design over every partition
// platform variant with the exact timing objective, reporting the
// schedule-only and joint optima of the widest variant plus the gain the
// partitioning axis delivers.
func BenchmarkJointCaseStudy(b *testing.B) {
	var rows []exp.PartitionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.PartitionCaseStudy(6, 0.01)
		if err != nil {
			b.Fatal(err)
		}
	}
	points := 0
	for _, r := range rows {
		points += r.Evaluated
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(points), "joint-points")
	b.ReportMetric(last.SharedPall, "Pall-schedule-only")
	b.ReportMetric(last.JointPall, "Pall-joint")
	b.ReportMetric(last.GainPct, "gain-pct")
}

// BenchmarkMulticoreCoDesign regenerates the multi-core co-design case
// study (Table V): placement x per-core partition x schedule over every
// partition platform variant, once with the retained exhaustive searchers
// and once with branch-and-bound. Both points report identical optima
// (the golden tests pin them bit-exact); comparing their ns/op,
// core-points (the co-design's) and uniform-points (the uniform-split
// baseline's) measures what the admissible bound buys.
func BenchmarkMulticoreCoDesign(b *testing.B) {
	for _, mode := range []struct {
		name string
		bb   bool
	}{{"exhaustive", false}, {"branchbound", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var results []*engine.Result
			for i := 0; i < b.N; i++ {
				var err error
				results, err = engine.Sweep(engine.Config{Workers: 1},
					exp.MulticoreScenarios(6, 0.01, 2, mode.bb))
				if err != nil {
					b.Fatal(err)
				}
			}
			points, uniform, joint, pruned := 0, 0, 0, 0
			for _, r := range results {
				points += r.Multicore.Evaluated
				uniform += r.MulticoreUniform.Evaluated
				joint += r.JointExhaustive.Evaluated
				pruned += r.JointPruned + r.Multicore.AssignmentsPruned + r.Multicore.SubtreesPruned
			}
			last := results[len(results)-1]
			b.ReportMetric(float64(points), "core-points")
			b.ReportMetric(float64(uniform), "uniform-points")
			b.ReportMetric(float64(joint), "joint-points")
			b.ReportMetric(float64(pruned), "pruned")
			b.ReportMetric(last.JointExhaustive.BestValue, "Pall-single-core")
			b.ReportMetric(last.Multicore.BestValue, "Pall-multicore")
		})
	}
}

// codesignBlock is one block of the end-to-end benchmark's codesign-sweep
// workload (bench/codesign.go), seeded by position: eight timing-objective
// scenarios with the exhaustive pass on, one per scenario class —
// schedule-only, an inclusive L2, sporadic arrivals, joint exhaustive on
// 4way-512, joint branch-and-bound on 8way-512, two cores with three and
// four apps, and schedule-only with five apps.
func codesignBlock() []engine.Scenario {
	pp := exp.PartitionPlatforms()
	paper := wcet.PaperPlatform()
	block := make([]engine.Scenario, 8)
	for c := range block {
		s := engine.Scenario{Name: fmt.Sprintf("class%d", c), Seed: int64(c + 1), Exhaustive: true}
		switch c {
		case 0:
			s.Platform = engine.PlatformVariants()[1]
		case 1:
			s.Platform = paper
			s.Platform.Hier = cachesim.Hierarchy{L2: cachesim.Config{
				Lines: 512, LineSize: paper.Cache.LineSize, Ways: 4, Policy: cachesim.LRU,
				HitCycles: 10, MissCycles: paper.Cache.MissCycles,
			}}
		case 2:
			s.Arrival = sched.Arrival{Model: sched.ArrivalSporadic, Jitter: 0.2, Seed: s.Seed}
		case 3:
			s.Platform, s.Partitioned = pp[2].Platform, true
		case 4:
			s.Platform, s.Partitioned, s.BranchBound = pp[3].Platform, true, true
		case 5:
			s.Platform, s.Cores, s.BranchBound = pp[2].Platform, 2, true
		case 6:
			s.Platform, s.Cores, s.BranchBound, s.NumApps = pp[2].Platform, 2, true, 4
		case 7:
			s.NumApps = 5
		}
		block[c] = s
	}
	return block
}

// BenchmarkCodesignBlock sweeps one codesign block serially: taskset and
// WCET generation plus hybrid and exact search for every scenario axis,
// with no controller design and no I/O. Run it with -benchmem: its
// allocs/op tracks the search layer's bookkeeping.
func BenchmarkCodesignBlock(b *testing.B) {
	block := codesignBlock()
	var results []*engine.Result
	for i := 0; i < b.N; i++ {
		var err error
		results, err = engine.Sweep(engine.Config{Workers: 1}, block)
		if err != nil {
			b.Fatal(err)
		}
	}
	points := 0
	for _, r := range results {
		points += r.Evaluated
	}
	b.ReportMetric(float64(points), "distinct-evals")
}

// BenchmarkJointHybridVsExhaustive measures the joint hybrid ascent's
// efficiency on the widest partition platform: evaluations executed by the
// walks against the full joint box, at equal optima.
func BenchmarkJointHybridVsExhaustive(b *testing.B) {
	variant := exp.PartitionPlatforms()[3] // 8way-512
	scn := engine.Scenario{
		Name: "bench", Seed: 1, Apps: apps.CaseStudy(), Platform: variant.Platform,
		Objective: engine.ObjectiveTiming, Partitioned: true, Exhaustive: true, MaxM: 6,
	}
	var res *engine.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = engine.Run(scn)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.JointHybrid.TotalEvaluations), "hybrid-evals")
	b.ReportMetric(float64(res.JointExhaustive.Evaluated), "exhaustive-evals")
	b.ReportMetric(res.BestValue, "Pall-joint")
	if res.JointExhaustive.FoundBest && res.JointHybrid.FoundBest &&
		res.JointHybrid.BestValue == res.JointExhaustive.BestValue {
		b.ReportMetric(1, "hybrid-found-optimum")
	} else {
		b.ReportMetric(0, "hybrid-found-optimum")
	}
}

// --- micro-benchmarks of the numerical substrates -------------------------

// BenchmarkExpm measures the matrix exponential used by every
// discretization.
func BenchmarkExpm(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a := mat.New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, r.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.Expm(a)
	}
}

// BenchmarkEigenvalues measures the QR eigenvalue solver used by every
// stability check.
func BenchmarkEigenvalues(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	a := mat.New(6, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a.Set(i, j, r.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mat.Eigenvalues(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSimulation measures raw cache-model throughput.
func BenchmarkCacheSimulation(b *testing.B) {
	c := cachesim.MustNew(cachesim.PaperConfig())
	r := rand.New(rand.NewSource(3))
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(r.Intn(512)) * 16
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)])
	}
}

// BenchmarkWCETAnalysis measures one WCET analysis of a case-study
// program: the must-analysis alone, cold pass plus warm fixpoint (the
// concrete simulation is the tests' oracle, see wcet.Simulate).
func BenchmarkWCETAnalysis(b *testing.B) {
	prog := apps.CaseStudy()[0].Program
	plat := wcet.PaperPlatform()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wcet.Analyze(prog, plat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWCETAnalysisAllWays measures one WCET analysis of a case-study
// program on 8way-512: a single must-analysis walk pricing all eight way
// counts (Result.WarmByWays; apps.Table runs one per application).
func BenchmarkWCETAnalysisAllWays(b *testing.B) {
	prog := apps.CaseStudy()[0].Program
	plat := exp.PartitionPlatforms()[3].Platform // 8way-512
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wcet.Analyze(prog, plat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSporadicEval measures the sporadic-arrival timing evaluator: one
// evaluator (jitter drawn once) scoring the feasible box of a seeded 3-app
// taskset, one schedule per op, as the co-design searches call it.
func BenchmarkSporadicEval(b *testing.B) {
	scn := engine.Scenario{Seed: 7, NumApps: 3}
	timings, weights, err := engine.RandomTaskset(rand.New(rand.NewSource(scn.Seed)), scn)
	if err != nil {
		b.Fatal(err)
	}
	box, err := sched.EnumerateFeasible(timings, 6)
	if err != nil {
		b.Fatal(err)
	}
	arr := sched.Arrival{Model: sched.ArrivalSporadic, Jitter: 0.2, Seed: 11}
	eval := engine.SporadicTimingEval(timings, weights, arr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval(box[i%len(box)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(box)), "box-size")
}

// closedLoopFixture assembles the plant, modes, and stabilizing gains of the
// closed-loop simulation benchmarks.
func closedLoopFixture(b *testing.B) (*ctrl.SimPlan, []ctrl.Mode, ctrl.Gains, ctrl.SimOptions) {
	b.Helper()
	study := apps.CaseStudy()
	plat := wcet.PaperPlatform()
	timings, _, err := apps.Timings(study, plat)
	if err != nil {
		b.Fatal(err)
	}
	derived, err := sched.Derive(timings, sched.Schedule{2, 2, 2})
	if err != nil {
		b.Fatal(err)
	}
	modes, err := ctrl.ModesFromSchedule(study[0].Plant, derived[0])
	if err != nil {
		b.Fatal(err)
	}
	ks, err := ctrl.PeriodicLQR(modes, 1, 1e-2)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := ctrl.HolisticFeedforward(modes, ks)
	if err != nil {
		b.Fatal(err)
	}
	g := ctrl.Gains{K: ks, F: fs}
	opts := ctrl.SimOptions{Horizon: 0.1, InitialGap: derived[0].Gap}
	plan, err := ctrl.CompileSimPlan(study[0].Plant, modes, opts)
	if err != nil {
		b.Fatal(err)
	}
	return plan, modes, g, opts
}

// BenchmarkClosedLoopSimulation measures one worst-case settling evaluation
// on a precompiled plan through the streaming objective path — the design
// loop's hot path: every PSO particle of every design runs exactly this.
func BenchmarkClosedLoopSimulation(b *testing.B) {
	plan, _, g, _ := closedLoopFixture(b)
	band := 0.9 * lti.SettlingBand
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Metrics(g, 0.2, band, plan.Horizon()/2, band); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClosedLoopSimulationDense measures the same run with dense
// trajectory recording and a per-call plan compile (the one-shot Simulate
// API used by reporting paths), to quantify what the compiled streaming
// path saves.
func BenchmarkClosedLoopSimulationDense(b *testing.B) {
	_, modes, g, opts := closedLoopFixture(b)
	plant := apps.CaseStudy()[0].Plant
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Simulate(plant, modes, g, 0.2, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignHolistic measures one holistic controller design — the
// unit every design-objective scenario repeats — for the first case-study
// application under schedule (2,2,2) at the quick budget with a single
// PSO worker, so ns/op is the serial cost of its objective evaluations.
func BenchmarkDesignHolistic(b *testing.B) {
	study := apps.CaseStudy()
	timings, _, err := apps.Timings(study, wcet.PaperPlatform())
	if err != nil {
		b.Fatal(err)
	}
	derived, err := sched.Derive(timings, sched.Schedule{2, 2, 2})
	if err != nil {
		b.Fatal(err)
	}
	opt := exp.QuickBudget()
	opt.Swarm.Workers = 1
	var d *ctrl.Design
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err = ctrl.DesignHolistic(study[0].Plant, derived[0], study[0].Constraints(), opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.SettlingTime*1e3, "settle-ms")
}
