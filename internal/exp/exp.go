// Package exp regenerates every table and figure of the paper's evaluation
// (Section V) from the reproduction pipeline. Each experiment returns
// structured rows plus a formatted rendering, so the CLI tools, the HTTP
// service (cmd/served), and the benchmark harness (bench_test.go, see
// README.md) all consume the same code path. Schedule-search experiments
// run through the concurrent sweep engine of internal/engine, sharing one
// memoization cache across hybrid starts and the exhaustive baseline;
// PartitionCaseStudyWith threads an optional persistent store underneath,
// and its rows are bit-identical with or without one (the golden tests
// pin the renderings).
package exp

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/apps"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
)

// PaperSchedules are the two schedules Table III compares.
var (
	PaperRoundRobin = sched.Schedule{1, 1, 1}
	PaperOptimal    = sched.Schedule{3, 2, 3}
)

// PaperStarts are the two random initializations of the paper's hybrid
// search experiment.
var PaperStarts = []sched.Schedule{{4, 2, 2}, {1, 2, 1}}

// TableIRow is one column of Table I (per application).
type TableIRow struct {
	App         string
	ColdUs      float64 // WCET w/o cache reuse
	ReductionUs float64 // guaranteed WCET reduction
	WarmUs      float64 // WCET w/ cache reuse
	ReusedLines int
}

// TableI runs the WCET/cache analysis for every application.
func TableI(applications []apps.App, plat wcet.Platform) ([]TableIRow, error) {
	rows := make([]TableIRow, len(applications))
	for i, a := range applications {
		res, err := wcet.Analyze(a.Program, plat)
		if err != nil {
			return nil, err
		}
		rows[i] = TableIRow{
			App:         a.Name,
			ColdUs:      plat.CyclesToMicros(res.ColdCycles),
			ReductionUs: plat.CyclesToMicros(res.ReductionCycles),
			WarmUs:      plat.CyclesToMicros(res.WarmCycles),
			ReusedLines: res.ReusedLines,
		}
	}
	return rows, nil
}

// FormatTableI renders Table I in the paper's layout.
func FormatTableI(rows []TableIRow) string {
	var sb strings.Builder
	sb.WriteString("TABLE I: WCET RESULTS WITH AND WITHOUT CACHE REUSE\n")
	fmt.Fprintf(&sb, "%-28s", "Application")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%12s", r.App)
	}
	sb.WriteString("\n")
	line := func(label string, f func(TableIRow) float64) {
		fmt.Fprintf(&sb, "%-28s", label)
		for _, r := range rows {
			fmt.Fprintf(&sb, "%9.2f us", f(r))
		}
		sb.WriteString("\n")
	}
	line("WCET w/o Cache Reuse", func(r TableIRow) float64 { return r.ColdUs })
	line("Guaranteed WCET Reduction", func(r TableIRow) float64 { return r.ReductionUs })
	line("WCET w/ Cache Reuse", func(r TableIRow) float64 { return r.WarmUs })
	return sb.String()
}

// TableIIRow echoes the application parameters (inputs of the case study).
type TableIIRow struct {
	App        string
	Weight     float64
	DeadlineMs float64
	MaxIdleMs  float64
}

// TableII returns the Table II parameters of the given applications.
func TableII(applications []apps.App) []TableIIRow {
	rows := make([]TableIIRow, len(applications))
	for i, a := range applications {
		rows[i] = TableIIRow{
			App:        a.Name,
			Weight:     a.Weight,
			DeadlineMs: a.SettleDeadline * 1e3,
			MaxIdleMs:  a.MaxIdle * 1e3,
		}
	}
	return rows
}

// FormatTableII renders Table II.
func FormatTableII(rows []TableIIRow) string {
	var sb strings.Builder
	sb.WriteString("TABLE II: APPLICATION PARAMETERS\n")
	fmt.Fprintf(&sb, "%-30s", "Application")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%10s", r.App)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-30s", "Weight (w_i)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%10.1f", r.Weight)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-30s", "Settling deadline (ms)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%10.1f", r.DeadlineMs)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-30s", "Max allowed idle time (ms)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%10.1f", r.MaxIdleMs)
	}
	sb.WriteString("\n")
	return sb.String()
}

// TableIIIRow is one application's comparison between two schedules.
type TableIIIRow struct {
	App            string
	SettleBaseMs   float64 // settling under the baseline schedule
	SettleOptMs    float64 // settling under the optimized schedule
	ImprovementPct float64
}

// TableIII compares two schedules through the framework.
type TableIIIResult struct {
	Rows     []TableIIIRow
	Base     *core.ScheduleEval
	Opt      *core.ScheduleEval
	PallBase float64
	PallOpt  float64
}

// TableIII evaluates both schedules and assembles the comparison.
func TableIII(fw *core.Framework, base, opt sched.Schedule) (*TableIIIResult, error) {
	evBase, err := fw.EvaluateSchedule(base)
	if err != nil {
		return nil, err
	}
	evOpt, err := fw.EvaluateSchedule(opt)
	if err != nil {
		return nil, err
	}
	res := &TableIIIResult{Base: evBase, Opt: evOpt, PallBase: evBase.Pall, PallOpt: evOpt.Pall}
	for i := range evBase.Apps {
		sb := evBase.Apps[i].Design.SettlingTime
		so := evOpt.Apps[i].Design.SettlingTime
		res.Rows = append(res.Rows, TableIIIRow{
			App:            evBase.Apps[i].Name,
			SettleBaseMs:   sb * 1e3,
			SettleOptMs:    so * 1e3,
			ImprovementPct: 100 * (sb - so) / sb,
		})
	}
	return res, nil
}

// FormatTableIII renders the comparison in the paper's layout.
func FormatTableIII(r *TableIIIResult) string {
	var sb strings.Builder
	sb.WriteString("TABLE III: CONTROL PERFORMANCE COMPARISON\n")
	fmt.Fprintf(&sb, "%-36s", "Application")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%10s", row.App)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "Settling time for %-18v", r.Base.Schedule)
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%7.1f ms", row.SettleBaseMs)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "Settling time for %-18v", r.Opt.Schedule)
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%7.1f ms", row.SettleOptMs)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-36s", "Control performance improvement")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%8.0f %%", row.ImprovementPct)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "P_all %v = %.4f, P_all %v = %.4f\n",
		r.Base.Schedule, r.PallBase, r.Opt.Schedule, r.PallOpt)
	return sb.String()
}

// Figure6Series is the system-output trajectory of one application under
// one schedule.
type Figure6Series struct {
	App      string
	Schedule sched.Schedule
	T        []float64
	Y        []float64
}

// Figure6 produces the dense output responses of every application under
// the two compared schedules (the paper's Fig. 6).
func Figure6(fw *core.Framework, schedules ...sched.Schedule) ([]Figure6Series, error) {
	if len(schedules) == 0 {
		schedules = []sched.Schedule{PaperRoundRobin, PaperOptimal}
	}
	var out []Figure6Series
	for _, s := range schedules {
		ev, err := fw.EvaluateSchedule(s)
		if err != nil {
			return nil, err
		}
		for _, ar := range ev.Apps {
			tr := ar.Design.Trajectory
			if tr == nil {
				return nil, fmt.Errorf("exp: schedule %v app %s has no trajectory", s, ar.Name)
			}
			series := Figure6Series{App: ar.Name, Schedule: s}
			for _, smp := range tr.Dense {
				series.T = append(series.T, smp.T)
				series.Y = append(series.Y, smp.Y)
			}
			out = append(out, series)
		}
	}
	return out, nil
}

// WriteFigure6CSV writes the series in long form: app,schedule,t,y.
func WriteFigure6CSV(w io.Writer, series []Figure6Series) error {
	if _, err := fmt.Fprintln(w, "app,schedule,t_s,y"); err != nil {
		return err
	}
	for _, s := range series {
		label := strings.ReplaceAll(strings.Trim(s.Schedule.String(), "()"), " ", "")
		for i := range s.T {
			if _, err := fmt.Fprintf(w, "%s,%s,%.6g,%.6g\n", s.App, label, s.T[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// PartitionPlatform is one named cache variant of the partitioned case
// study (Table IV): the paper's direct-mapped baseline has no partitionable
// ways, the associative variants trade per-way capacity against the number
// of applications that can own a private partition.
type PartitionPlatform struct {
	Name     string
	Platform wcet.Platform
}

// PartitionPlatforms returns the platform variants of the partitioned case
// study. On "paper" the joint space degenerates to the shared subspace; on
// "4way-256" partitions exist but a single way's 64 lines are too small for
// the case-study programs, so sharing stays optimal; on "4way-512" and
// "8way-512" dedicated partitions eliminate the cold start of every burst
// and the joint optimum beats the schedule-only one.
func PartitionPlatforms() []PartitionPlatform {
	mk := func(lines, ways int) wcet.Platform {
		return wcet.Platform{ClockHz: 20e6, Cache: cachesim.Config{
			Lines: lines, LineSize: 16, Ways: ways, Policy: cachesim.LRU,
			HitCycles: 1, MissCycles: 100,
		}}
	}
	return []PartitionPlatform{
		{Name: "paper-128x1", Platform: wcet.PaperPlatform()},
		{Name: "4way-256", Platform: mk(256, 4)},
		{Name: "4way-512", Platform: mk(512, 4)},
		{Name: "8way-512", Platform: mk(512, 8)},
	}
}

// PartitionRow is one platform variant's comparison between the
// schedule-only optimum and the joint cache-partition + schedule optimum.
type PartitionRow struct {
	Platform   string
	Ways       int
	Evaluated  int            // joint points evaluated by the exhaustive pass
	SharedBest sched.Schedule // schedule-only optimum (shared subspace)
	SharedPall float64
	JointBest  sched.JointSchedule // joint optimum
	JointPall  float64
	GainPct    float64 // 100 * (joint - shared) / shared
}

// PartitionCaseStudy runs the joint co-design on the case-study taskset
// over every partition platform variant, through the sweep engine's
// Partitioned scenario axis with the timing objective (exact and
// deterministic, so the rows are stable enough to golden-test).
func PartitionCaseStudy(maxM int, tolerance float64) ([]PartitionRow, error) {
	return PartitionCaseStudyWith(maxM, tolerance, engine.Config{Workers: 1})
}

// PartitionCaseStudyWith is PartitionCaseStudy under an explicit engine
// configuration, so callers can attach a persistent store and resume from
// checkpoints (cmd/partsearch -store/-resume, cmd/served /v1/table/IV).
// Rows are bit-identical for any configuration.
func PartitionCaseStudyWith(maxM int, tolerance float64, cfg engine.Config) ([]PartitionRow, error) {
	variants := PartitionPlatforms()
	scenarios := make([]engine.Scenario, len(variants))
	for i, v := range variants {
		scenarios[i] = engine.Scenario{
			Name:        v.Name,
			Seed:        1,
			Apps:        apps.CaseStudy(),
			Platform:    v.Platform,
			Objective:   engine.ObjectiveTiming,
			Partitioned: true,
			Exhaustive:  true,
			MaxM:        maxM,
			Tolerance:   tolerance,
		}
	}
	results, err := engine.Sweep(cfg, scenarios)
	if err != nil {
		return nil, err
	}
	rows := make([]PartitionRow, len(results))
	for i, res := range results {
		ex := res.JointExhaustive
		if ex == nil || !ex.FoundBest || !ex.FoundShared {
			return nil, fmt.Errorf("exp: partition case study %s found no optimum", res.Name)
		}
		rows[i] = PartitionRow{
			Platform:   res.Name,
			Ways:       variants[i].Platform.Cache.Ways,
			Evaluated:  ex.Evaluated,
			SharedBest: ex.BestShared.M,
			SharedPall: ex.BestSharedValue,
			JointBest:  ex.Best,
			JointPall:  ex.BestValue,
			GainPct:    100 * (ex.BestValue - ex.BestSharedValue) / ex.BestSharedValue,
		}
	}
	return rows, nil
}

// FormatPartitionTable renders the partitioned case study in the style of
// the paper's tables.
func FormatPartitionTable(rows []PartitionRow) string {
	var sb strings.Builder
	sb.WriteString("TABLE IV: JOINT CACHE-PARTITION + SCHEDULE CO-DESIGN\n")
	fmt.Fprintf(&sb, "%-12s %4s %8s  %-14s %8s  %-22s %8s %8s\n",
		"Platform", "Ways", "Points", "Schedule-only", "P_all", "Joint (m)x[w]", "P_all", "Gain")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %4d %8d  %-14s %8.4f  %-22s %8.4f %+7.1f%%\n",
			r.Platform, r.Ways, r.Evaluated,
			r.SharedBest.String(), r.SharedPall,
			r.JointBest.String(), r.JointPall, r.GainPct)
	}
	return sb.String()
}

// MulticoreRow is one platform variant's multi-core co-design comparison:
// the single-core joint optimum against the placement x partition x
// schedule optimum on Cores cores, plus the uniform-split baseline that
// fixes every core to the even way split.
type MulticoreRow struct {
	Platform string
	Ways     int
	Cores    int

	SinglePall  float64 // single-core joint optimum (Table IV's)
	MultiPall   float64 // placement co-design optimum
	UniformPall float64 // placement optimum under uniform splits
	GainPct     float64 // 100 * (multi - single) / single
	SplitPct    float64 // 100 * (multi - uniform) / uniform

	Assignment []int                 // winning canonical placement
	PerCore    []search.CoreSolution // winning per-core joint points

	Evaluated         int // core points visited (branch-and-bound)
	JointPruned       int // subtrees cut in the single-core joint pass
	AssignmentsPruned int // placements cut before any core solve
	SubtreesPruned    int // subtrees cut inside per-core searches
}

// MulticoreCaseStudy runs the multi-core co-design on the case-study
// taskset over every partition platform variant with the timing bound on
// every exact pass, the uniform baseline's included (optima pinned equal
// to the unbounded ones by TestMulticoreBBMatchesExhaustive).
func MulticoreCaseStudy(maxM int, tolerance float64, cores int) ([]MulticoreRow, error) {
	return MulticoreCaseStudyWith(maxM, tolerance, cores, engine.Config{Workers: 1})
}

// MulticoreScenarios returns the per-platform scenarios of the multi-core
// case study; the branchBound flag gives the exact passes a bound (the
// optimum is pinned identical either way).
func MulticoreScenarios(maxM int, tolerance float64, cores int, branchBound bool) []engine.Scenario {
	variants := PartitionPlatforms()
	scenarios := make([]engine.Scenario, len(variants))
	for i, v := range variants {
		scenarios[i] = engine.Scenario{
			Name:        v.Name,
			Seed:        1,
			Apps:        apps.CaseStudy(),
			Platform:    v.Platform,
			Objective:   engine.ObjectiveTiming,
			Exhaustive:  true,
			BranchBound: branchBound,
			Cores:       cores,
			MaxM:        maxM,
			Tolerance:   tolerance,
		}
	}
	return scenarios
}

// MulticoreCaseStudyWith is MulticoreCaseStudy under an explicit engine
// configuration (store, resume, workers). Rows are bit-identical for any
// configuration — the engine's determinism guarantee extends across the
// placement axis.
func MulticoreCaseStudyWith(maxM int, tolerance float64, cores int, cfg engine.Config) ([]MulticoreRow, error) {
	variants := PartitionPlatforms()
	results, err := engine.Sweep(cfg, MulticoreScenarios(maxM, tolerance, cores, true))
	if err != nil {
		return nil, err
	}
	rows := make([]MulticoreRow, len(results))
	for i, res := range results {
		ex, mc, uni := res.JointExhaustive, res.Multicore, res.MulticoreUniform
		if ex == nil || !ex.FoundBest || mc == nil || !mc.FoundBest || uni == nil || !uni.FoundBest {
			return nil, fmt.Errorf("exp: multicore case study %s found no optimum", res.Name)
		}
		rows[i] = MulticoreRow{
			Platform:          res.Name,
			Ways:              variants[i].Platform.Cache.Ways,
			Cores:             cores,
			SinglePall:        ex.BestValue,
			MultiPall:         mc.BestValue,
			UniformPall:       uni.BestValue,
			GainPct:           100 * (mc.BestValue - ex.BestValue) / ex.BestValue,
			SplitPct:          100 * (mc.BestValue - uni.BestValue) / uni.BestValue,
			Assignment:        mc.Assignment,
			PerCore:           mc.PerCore,
			Evaluated:         mc.Evaluated,
			JointPruned:       res.JointPruned,
			AssignmentsPruned: mc.AssignmentsPruned,
			SubtreesPruned:    mc.SubtreesPruned,
		}
	}
	return rows, nil
}

// FormatMulticoreTable renders the multi-core case study in the style of
// the paper's tables: per platform, the single-core joint optimum, the
// placement co-design optimum with its winning placement and per-core
// points, and the uniform-split comparison.
func FormatMulticoreTable(rows []MulticoreRow) string {
	var sb strings.Builder
	cores := 0
	if len(rows) > 0 {
		cores = rows[0].Cores
	}
	fmt.Fprintf(&sb, "TABLE V: MULTI-CORE PLACEMENT + PARTITION + SCHEDULE CO-DESIGN (%d CORES)\n", cores)
	fmt.Fprintf(&sb, "%-12s %4s %8s  %8s %8s %8s  %8s %8s  %-10s %s\n",
		"Platform", "Ways", "Points", "1-core", "Uniform", "P_all", "Gain", "Split+", "Placement", "Per-core (m)x[w]")
	for _, r := range rows {
		var pc strings.Builder
		for c, sol := range r.PerCore {
			if c > 0 {
				pc.WriteString("  ")
			}
			pc.WriteString(sol.Point.String())
		}
		fmt.Fprintf(&sb, "%-12s %4d %8d  %8.4f %8.4f %8.4f  %+7.1f%% %+7.1f%%  %-10s %s\n",
			r.Platform, r.Ways, r.Evaluated,
			r.SinglePall, r.UniformPall, r.MultiPall,
			r.GainPct, r.SplitPct,
			fmt.Sprint(r.Assignment), pc.String())
	}
	return sb.String()
}

// ScenarioPlatforms returns the platform variants of the scenario-diversity
// case study (Table VI): the paper's single-level baseline and the same L1
// backed by a 512-line 4-way LRU L2 (hit 10 cycles) in inclusive and
// exclusive (victim) modes. The inclusive L2 absorbs part of every
// guaranteed L1 miss, so that variant starts from shorter WCETs; the
// exclusive variant is analyzed conservatively (no L2 hit guarantees), so
// its rows pin bit-identical to the single-level baseline — documenting
// exactly what the victim-cache analysis does not claim.
func ScenarioPlatforms() []PartitionPlatform {
	paper := wcet.PaperPlatform()
	l2 := cachesim.Config{
		Lines: 512, LineSize: paper.Cache.LineSize, Ways: 4, Policy: cachesim.LRU,
		HitCycles: 10, MissCycles: paper.Cache.MissCycles,
	}
	incl, excl := paper, paper
	incl.Hier = cachesim.Hierarchy{L2: l2}
	excl.Hier = cachesim.Hierarchy{L2: l2, Exclusive: true}
	return []PartitionPlatform{
		{Name: "paper-128x1", Platform: paper},
		{Name: "l1l2-incl", Platform: incl},
		{Name: "l1l2-excl", Platform: excl},
	}
}

// TableVIJitters are the release-jitter levels of the scenario-diversity
// case study; 0 is the periodic baseline every degradation is measured
// against.
func TableVIJitters() []float64 { return []float64{0, 0.05, 0.1, 0.25} }

// TableVIRow is one (platform, jitter) cell of the scenario-diversity case
// study: the exhaustive timing optimum under sporadic releases with that
// jitter bound, and its degradation against the periodic (zero-jitter)
// optimum on the same platform.
type TableVIRow struct {
	Platform  string
	Jitter    float64
	Evaluated int            // schedules evaluated by the exhaustive pass
	Best      sched.Schedule // optimum under this arrival model
	Pall      float64
	// DegradePct is 100 * (periodic - this) / periodic. Usually positive;
	// small jitter can push it slightly negative, because a delayed release
	// reorders the FCFS queue and can shrink another app's worst observed
	// sampling gap below the periodic worst case.
	DegradePct float64
}

// ScenarioDiversityScenarios returns the Table VI scenario grid: the
// case-study taskset on every scenario platform crossed with every jitter
// level, under the sporadic arrival model (seed 7, default cycles). The
// zero-jitter column normalizes to the periodic engine, so its rows double
// as the metamorphic pin for the arrival axis.
func ScenarioDiversityScenarios(maxM int, tolerance float64) []engine.Scenario {
	variants := ScenarioPlatforms()
	jitters := TableVIJitters()
	scenarios := make([]engine.Scenario, 0, len(variants)*len(jitters))
	for _, v := range variants {
		for _, j := range jitters {
			scenarios = append(scenarios, engine.Scenario{
				Name:       fmt.Sprintf("%s-j%03.0f", v.Name, 100*j),
				Seed:       1,
				Apps:       apps.CaseStudy(),
				Platform:   v.Platform,
				Arrival:    sched.Arrival{Model: sched.ArrivalSporadic, Jitter: j, Seed: 7},
				Objective:  engine.ObjectiveTiming,
				Exhaustive: true,
				MaxM:       maxM,
				Tolerance:  tolerance,
			})
		}
	}
	return scenarios
}

// ScenarioDiversityCaseStudy runs the scenario-diversity sweep (Table VI):
// exact, deterministic rows pinned by the golden test.
func ScenarioDiversityCaseStudy(maxM int, tolerance float64) ([]TableVIRow, error) {
	return ScenarioDiversityCaseStudyWith(maxM, tolerance, engine.Config{Workers: 1})
}

// ScenarioDiversityCaseStudyWith is ScenarioDiversityCaseStudy under an
// explicit engine configuration (store, resume, workers). Rows are
// bit-identical for any configuration.
func ScenarioDiversityCaseStudyWith(maxM int, tolerance float64, cfg engine.Config) ([]TableVIRow, error) {
	scenarios := ScenarioDiversityScenarios(maxM, tolerance)
	results, err := engine.Sweep(cfg, scenarios)
	if err != nil {
		return nil, err
	}
	jitters := TableVIJitters()
	rows := make([]TableVIRow, len(results))
	for i, res := range results {
		ex := res.Exhaustive
		if ex == nil || !ex.FoundBest {
			return nil, fmt.Errorf("exp: scenario diversity %s found no optimum", res.Name)
		}
		rows[i] = TableVIRow{
			Platform:  scenarios[i].Name[:len(scenarios[i].Name)-5], // strip "-jNNN"
			Jitter:    jitters[i%len(jitters)],
			Evaluated: ex.Evaluated,
			Best:      ex.Best,
			Pall:      ex.BestValue,
		}
		base := rows[i-i%len(jitters)].Pall // zero-jitter row of this platform
		rows[i].DegradePct = 100 * (base - rows[i].Pall) / base
	}
	return rows, nil
}

// FormatTableVI renders the scenario-diversity case study: per platform,
// the P_all optimum of each jitter level and its degradation against the
// periodic baseline.
func FormatTableVI(rows []TableVIRow) string {
	var sb strings.Builder
	sb.WriteString("TABLE VI: P_ALL DEGRADATION UNDER SPORADIC RELEASE JITTER\n")
	fmt.Fprintf(&sb, "%-12s %7s %8s  %-10s %8s %10s\n",
		"Platform", "Jitter", "Points", "Best m", "P_all", "Degrade")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %6.0f%% %8d  %-10s %8.4f %9.1f%%\n",
			r.Platform, 100*r.Jitter, r.Evaluated, r.Best.String(), r.Pall, r.DegradePct)
	}
	return sb.String()
}

// SearchStatsResult reproduces the Section V search experiment.
type SearchStatsResult struct {
	Hybrid     *search.HybridResult
	Exhaustive *search.ExhaustiveResult
}

// SearchStats runs the hybrid search from the paper's two starts and the
// exhaustive baseline. Both share one memoization cache, so a schedule the
// hybrid walks already evaluated is free for the exhaustive pass (per-run
// counts still attribute each evaluation to the walk that executed it).
func SearchStats(fw *core.Framework, maxM int, tolerance float64) (*SearchStatsResult, error) {
	eval := fw.EvalFunc()
	cache := search.NewCache(eval)
	hy, err := search.Hybrid(eval, fw.Timings, PaperStarts, search.Options{Tolerance: tolerance, MaxM: maxM, Cache: cache})
	if err != nil {
		return nil, err
	}
	ex, err := search.ExhaustiveCached(cache, fw.Timings, maxM, 1)
	if err != nil {
		return nil, err
	}
	return &SearchStatsResult{Hybrid: hy, Exhaustive: ex}, nil
}

// CaseStudyScenario is the paper's Section V experiment phrased as a sweep
// scenario: the three case-study applications on the paper platform, hybrid
// search from the paper's two starts plus the exhaustive baseline, all
// deduplicated through one evaluation cache.
func CaseStudyScenario(budget ctrl.DesignOptions, maxM int, tolerance float64) engine.Scenario {
	return engine.Scenario{
		Name:       "case-study",
		Seed:       1,
		Apps:       apps.CaseStudy(),
		Platform:   wcet.PaperPlatform(),
		Objective:  engine.ObjectiveDesign,
		Budget:     budget,
		MaxM:       maxM,
		Tolerance:  tolerance,
		StartList:  PaperStarts,
		Exhaustive: true,
	}
}

// CaseStudySweepResult bundles the engine run with the regenerated tables.
type CaseStudySweepResult struct {
	Run      *engine.Result
	TableII  []TableIIRow
	TableIII *TableIIIResult
}

// SweepCaseStudy regenerates Tables II and III through the sweep engine:
// it runs the case-study scenario, then compares the paper's round-robin
// baseline against the best schedule the sweep found.
func SweepCaseStudy(budget ctrl.DesignOptions, maxM int, tolerance float64) (*CaseStudySweepResult, error) {
	results, err := engine.Sweep(engine.Config{Workers: 1}, []engine.Scenario{
		CaseStudyScenario(budget, maxM, tolerance),
	})
	if err != nil {
		return nil, err
	}
	run := results[0]
	if !run.FoundBest {
		return nil, fmt.Errorf("exp: case-study sweep found no feasible schedule")
	}
	t3, err := TableIII(run.Framework, PaperRoundRobin, run.Best)
	if err != nil {
		return nil, err
	}
	return &CaseStudySweepResult{
		Run:      run,
		TableII:  TableII(apps.CaseStudy()),
		TableIII: t3,
	}, nil
}

// FormatSearchStats renders the search-efficiency comparison.
func FormatSearchStats(r *SearchStatsResult) string {
	var sb strings.Builder
	sb.WriteString("SCHEDULE SEARCH (Section V)\n")
	fmt.Fprintf(&sb, "Exhaustive: %d schedules evaluated (%d feasible), best %v with P_all = %.4f\n",
		r.Exhaustive.Evaluated, r.Exhaustive.Feasible, r.Exhaustive.Best, r.Exhaustive.BestValue)
	for _, run := range r.Hybrid.Runs {
		pct := 100 * float64(run.Evaluations) / float64(max(1, r.Exhaustive.Evaluated))
		fmt.Fprintf(&sb, "Hybrid from %v: best %v (P_all = %.4f) in %d evaluations (%.1f%% of brute force)\n",
			run.Start, run.Best, run.BestValue, run.Evaluations, pct)
	}
	fmt.Fprintf(&sb, "Evaluations executed across all hybrid walks: %d (cache hit rate %.0f%%)\n",
		r.Hybrid.TotalEvaluations, 100*r.Hybrid.CacheStats.HitRate())
	return sb.String()
}

// DefaultFramework builds the paper case-study framework with the given
// design budget (see ctrl.DesignOptions) and a fine reporting grid.
func DefaultFramework(budget ctrl.DesignOptions) (*core.Framework, error) {
	fw, err := core.New(apps.CaseStudy(), wcet.PaperPlatform(), budget)
	if err != nil {
		return nil, err
	}
	fw.ReportDtMax = 10e-6
	return fw, nil
}

// QuickBudget is a small deterministic design budget for tests and smoke
// runs; PaperBudget is the budget used for the reported experiments.
func QuickBudget() ctrl.DesignOptions {
	var opt ctrl.DesignOptions
	opt.Swarm.Particles = 16
	opt.Swarm.Iterations = 25
	return opt
}

// TinyBudget is the minimal budget the CLI smoke tests use: designs are low
// quality but every pipeline stage still runs.
func TinyBudget() ctrl.DesignOptions {
	var opt ctrl.DesignOptions
	opt.Swarm.Particles = 4
	opt.Swarm.Iterations = 5
	return opt
}

// budgets is the one list of design budget names every command and the
// HTTP service accept.
var budgets = map[string]func() ctrl.DesignOptions{
	"tiny":  TinyBudget,
	"quick": QuickBudget,
	"paper": PaperBudget,
	"deep": func() ctrl.DesignOptions {
		var opt ctrl.DesignOptions
		opt.Swarm.Particles = 64
		opt.Swarm.Iterations = 150
		return opt
	},
}

// KnownBudget reports whether name is a budget Budget maps.
func KnownBudget(name string) bool {
	_, ok := budgets[name]
	return ok
}

// Budget maps a CLI budget name to design options (default quick). It is
// the single source of the name-to-options mapping for every command.
func Budget(name string) ctrl.DesignOptions {
	if b, ok := budgets[name]; ok {
		return b()
	}
	return QuickBudget()
}

// PaperBudget returns the full experiment design budget.
func PaperBudget() ctrl.DesignOptions {
	var opt ctrl.DesignOptions
	opt.Swarm.Particles = 32
	opt.Swarm.Iterations = 60
	return opt
}
