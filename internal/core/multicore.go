package core

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/engine/evalcache"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
)

// Multicore implements the paper's Section VI remark that the framework
// "can be naturally extended to a multi-core architecture, where each core
// has its own cache": applications are partitioned onto cores, every core
// runs an independent periodic schedule against its private cache, and the
// overall performance is the weighted sum across cores. The placement axis
// composes with the joint cache-partition + schedule co-design (PR 8): each
// core may further split its private cache among its applications, and
// OptimizeMulticoreCoDesign searches placements, partitions, and schedules
// together through internal/search.

// CoreAssignment maps each application index to a core.
type CoreAssignment []int

// Valid checks the core count is positive, the assignment references cores
// 0..nCores-1, and every core hosts at least one application.
func (ca CoreAssignment) Valid(nApps, nCores int) error {
	if nCores < 1 {
		return fmt.Errorf("core: %d cores, want at least 1", nCores)
	}
	if len(ca) != nApps {
		return fmt.Errorf("core: assignment for %d apps, want %d", len(ca), nApps)
	}
	used := make([]bool, nCores)
	for i, c := range ca {
		if c < 0 || c >= nCores {
			return fmt.Errorf("core: app %d assigned to core %d of %d", i, c, nCores)
		}
		used[c] = true
	}
	for c, ok := range used {
		if !ok {
			return fmt.Errorf("core: core %d hosts no application", c)
		}
	}
	return nil
}

// BalancedAssignment returns a simple load-balancing heuristic: apps are
// sorted by cold WCET (descending, ties kept in index order) and greedily
// placed on the least-loaded core. It is the default placement seed for the
// multi-core extension.
func BalancedAssignment(timings []sched.AppTiming, nCores int) (CoreAssignment, error) {
	if nCores < 1 {
		return nil, fmt.Errorf("core: balanced assignment over %d cores", nCores)
	}
	if nCores > len(timings) {
		return nil, fmt.Errorf("core: balanced assignment of %d apps over %d cores leaves cores empty",
			len(timings), nCores)
	}
	return greedyAssignment(loads(timings, func(tm sched.AppTiming) float64 { return tm.ColdWCET }), nCores), nil
}

// SensitivityAssignment orders applications by cache sensitivity — how much
// their steady-state WCET improves from owning one way to owning the full
// cache (falling back to cold-minus-warm on the shared taskset when no
// per-way table exists) — and greedily spreads the most sensitive apps
// across the least-loaded cores. Cache-hungry applications then share a
// core with insensitive ones, leaving more ways for the partitions that
// profit from them; it complements BalancedAssignment as a placement seed.
func SensitivityAssignment(pt sched.PartitionTimings, nCores int) (CoreAssignment, error) {
	n := len(pt.Shared)
	if nCores < 1 {
		return nil, fmt.Errorf("core: sensitivity assignment over %d cores", nCores)
	}
	if nCores > n {
		return nil, fmt.Errorf("core: sensitivity assignment of %d apps over %d cores leaves cores empty",
			n, nCores)
	}
	sens := make([]float64, n)
	for i := 0; i < n; i++ {
		if len(pt.ByWays) > 0 {
			sens[i] = pt.ByWays[0][i].WarmWCET - pt.ByWays[len(pt.ByWays)-1][i].WarmWCET
		} else {
			sens[i] = pt.Shared[i].ColdWCET - pt.Shared[i].WarmWCET
		}
	}
	items := make([]loadItem, n)
	for i, s := range sens {
		items[i] = loadItem{idx: i, load: s}
	}
	return greedyAssignment(items, nCores), nil
}

type loadItem struct {
	idx  int
	load float64
}

func loads(timings []sched.AppTiming, f func(sched.AppTiming) float64) []loadItem {
	items := make([]loadItem, len(timings))
	for i, tm := range timings {
		items[i] = loadItem{idx: i, load: f(tm)}
	}
	return items
}

// greedyAssignment sorts descending by load (stable, so equal loads keep
// index order and the result is deterministic) and places each item on the
// least-loaded core; load ties break to the core hosting fewer apps, then
// to the lowest index. The count tiebreak guarantees every core is used
// when there are at least as many apps as cores — even under degenerate
// all-equal loads (e.g. zero cache sensitivity on a 1-way platform).
func greedyAssignment(items []loadItem, nCores int) CoreAssignment {
	sorted := append([]loadItem(nil), items...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].load > sorted[b].load })
	coreLoad := make([]float64, nCores)
	coreApps := make([]int, nCores)
	out := make(CoreAssignment, len(items))
	for _, it := range sorted {
		c := 0
		for k := 1; k < nCores; k++ {
			if coreLoad[k] < coreLoad[c] ||
				(coreLoad[k] == coreLoad[c] && coreApps[k] < coreApps[c]) {
				c = k
			}
		}
		out[it.idx] = c
		coreLoad[c] += it.load
		coreApps[c]++
	}
	return out
}

// PlacementSeeds returns the heuristic core assignments used to seed the
// placement search over the joint timing table pt: the load-balanced
// (on the shared taskset) and the cache-sensitivity orderings. Both are
// mandatory coverage when the canonical placement enumeration overflows.
// Assignments the heuristics cannot produce (e.g. more cores than apps) are
// simply absent; the searchers validate what remains.
func PlacementSeeds(pt sched.PartitionTimings, nCores int) [][]int {
	var seeds [][]int
	if ba, err := BalancedAssignment(pt.Shared, nCores); err == nil {
		seeds = append(seeds, []int(ba))
	}
	if sa, err := SensitivityAssignment(pt, nCores); err == nil {
		seeds = append(seeds, []int(sa))
	}
	return seeds
}

// CoreView returns the sub-framework of the given application subset
// (strictly ascending global indices): the same platform and design budget
// over that core's applications, with timing tables sliced from the parent
// — no WCET re-analysis. Views are memoized per subset, so every evaluation
// of the same core point hits one cache, and the view's evaluations are
// pure functions of (subset, point) exactly like the parent's.
func (f *Framework) CoreView(idx []int) (*Framework, error) {
	sub, err := search.SubPartition(f.PartTimings, idx)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprint(idx)
	f.coreMu.Lock()
	defer f.coreMu.Unlock()
	if f.coreViews == nil {
		f.coreViews = make(map[string]*Framework)
	}
	if v, ok := f.coreViews[key]; ok {
		return v, nil
	}
	v := &Framework{
		Platform:    f.Platform,
		DesignOpt:   f.DesignOpt,
		ReportDtMax: f.ReportDtMax,
		PartTimings: sub,
		Timings:     sub.Shared,
		Apps:        make([]apps.App, len(idx)),
		WCETResults: make([]*wcet.Result, len(idx)),
	}
	for k, i := range idx {
		v.Apps[k] = f.Apps[i]
		v.WCETResults[k] = f.WCETResults[i]
	}
	v.cache = evalcache.NewCache(0, v.evaluate)
	f.coreViews[key] = v
	return v, nil
}

// MulticoreEvalFunc adapts the framework to the placement searchers: a core
// point evaluates its joint (schedule, ways) point on the CoreView of its
// application subset — the core's private cache is the full platform cache.
func (f *Framework) MulticoreEvalFunc() search.CoreEvalFunc {
	return func(p search.CorePoint) (search.Outcome, error) {
		view, err := f.CoreView(p.Apps)
		if err != nil {
			return search.Outcome{}, err
		}
		return outcome(view.EvaluateJoint(p.Point))
	}
}

// OptimizeMulticoreCoDesign runs the full placement x partition x schedule
// co-design over nCores cores: every canonical application-to-core
// assignment (or the heuristic seeds when the placement space overflows
// opt.MaxAssignments), each core's private cache split among its
// applications, each split's feasible schedules. When opt.Seeds is nil the
// heuristic placements (PlacementSeeds) are used; pass a non-nil cache to
// share evaluations across calls. A non-nil opt.Bounder cuts placements and
// subtrees — identical optimum, fewer evaluations.
func (f *Framework) OptimizeMulticoreCoDesign(nCores int, opt search.MulticoreOptions, cache *search.MulticoreCache) (*search.MulticoreResult, error) {
	if cache == nil {
		cache = search.NewMulticoreCache(f.MulticoreEvalFunc())
	}
	if opt.Seeds == nil {
		opt.Seeds = PlacementSeeds(f.PartTimings, nCores)
	}
	return search.MulticoreExact(cache, f.PartTimings, nCores, opt)
}
