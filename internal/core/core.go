// Package core is the paper's two-stage co-design framework:
//
//	Stage 1 (Section III): for a given schedule, derive control timing from
//	cache-aware WCETs and design a holistic controller per application that
//	maximizes its control performance under the constraints of Section II.
//
//	Stage 2 (Section IV): search the schedule space (m1, ..., mn) for the
//	schedule maximizing the weighted overall control performance
//	P_all = sum_i w_i (1 - s_i / s_i^max).
//
// A Framework owns the platform model, the per-application WCET analysis
// results, and deterministic evaluation of schedules; the search package
// drives it through EvalFunc, JointEvalFunc, and MulticoreEvalFunc, which
// evaluates one core of search.MulticoreExact's placement search on the
// sub-framework of that core's applications.
//
// Key invariant: evaluation is a pure function of (framework, point). PSO
// seeds derive from the point's canonical key and the app index, a plain
// schedule is its shared joint point in one evaluation cache, and all
// memoization (internal/engine/evalcache) is semantically invisible — which
// is what lets the engine persist evaluation outcomes (internal/store) and
// replay them bit-identically across processes.
package core

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/apps"
	"repro/internal/ctrl"
	"repro/internal/engine/evalcache"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
)

// Framework binds applications to a platform and evaluates schedules.
type Framework struct {
	Apps     []apps.App
	Platform wcet.Platform
	// DesignOpt is the per-application design budget template; the PSO
	// seed is overridden per (schedule, app) for determinism.
	DesignOpt ctrl.DesignOptions
	// ReportDtMax, when positive, re-evaluates the winning design of every
	// app with this (finer) dense output resolution for reporting. The
	// horizon and every sampling instant stay identical to the design
	// evaluation, so the reported settling matches the designed one; only
	// the continuous trace for figures gains resolution.
	ReportDtMax float64

	Timings     []sched.AppTiming
	WCETResults []*wcet.Result

	// PartTimings is the joint co-design timing table: the shared taskset
	// plus every app's steady-state timing under each dedicated-way count
	// (ColdWCET == WarmWCET; a partition's contents survive other apps'
	// bursts). Shared entries alias Timings, so schedule-only evaluation is
	// untouched by the partitioning axis.
	PartTimings sched.PartitionTimings

	// cache memoizes full evaluations of joint (schedule, ways) points
	// through the shared sharded cache layer (internal/engine/evalcache), so
	// concurrent searches and sweeps coalesce duplicate evaluations. A plain
	// schedule is its shared point, whose key equals the schedule's own, so
	// schedule-only and joint entry paths share every entry.
	cache *evalcache.Cache[sched.JointSchedule, sched.PointKey, *ScheduleEval]
}

// New runs the WCET analysis of every application on the platform and
// returns a ready-to-evaluate framework.
func New(applications []apps.App, plat wcet.Platform, designOpt ctrl.DesignOptions) (*Framework, error) {
	if len(applications) == 0 {
		return nil, fmt.Errorf("core: no applications")
	}
	pt, rs, err := apps.Table(applications, plat)
	if err != nil {
		return nil, err
	}
	return FromTable(applications, plat, designOpt, pt, rs), nil
}

// FromTable returns a ready-to-evaluate framework over applications whose
// WCET analysis on plat already ran: pt and rs must be what
// apps.Table(applications, plat) returns.
func FromTable(applications []apps.App, plat wcet.Platform, designOpt ctrl.DesignOptions, pt sched.PartitionTimings, rs []*wcet.Result) *Framework {
	f := &Framework{
		Apps:        applications,
		Platform:    plat,
		DesignOpt:   designOpt,
		Timings:     pt.Shared,
		WCETResults: rs,
		PartTimings: pt,
	}
	f.cache = evalcache.NewCache(f.evaluate)
	return f
}

// AppResult is the stage-1 outcome for one application under a schedule.
type AppResult struct {
	Name        string
	Timing      sched.AppSchedule
	Design      *ctrl.Design
	Performance float64 // P_i = 1 - s_i/s0_i
}

// ScheduleEval is the full evaluation of one schedule.
type ScheduleEval struct {
	Schedule     sched.Schedule
	Ways         sched.Ways // dedicated ways per app (nil = shared cache)
	Apps         []AppResult
	Pall         float64 // Eq. (2)
	Feasible     bool    // constraints (3) and (4) plus design feasibility
	IdleFeasible bool
}

// EvaluateSchedule designs holistic controllers for every application under
// schedule s and aggregates the overall control performance. It is
// EvaluateJoint of the shared point of s. Results are memoized; evaluation
// is deterministic for a given framework.
func (f *Framework) EvaluateSchedule(s sched.Schedule) (*ScheduleEval, error) {
	return f.EvaluateJoint(sched.SharedPoint(s))
}

// evaluate runs stage 1 under the timing vector of one joint point (the
// shared taskset for a shared point). The per-app PSO seeds derive from the
// point's canonical key; a shared point's key equals its plain schedule
// key, keeping schedule-only evaluations reproducible across both entry
// paths. The searchers pass j as a view into reused buffers, so everything
// the result keeps of it is cloned.
func (f *Framework) evaluate(j sched.JointSchedule) (*ScheduleEval, error) {
	timings, err := f.PartTimings.Timings(j)
	if err != nil {
		return nil, err
	}
	s := j.M
	ev := &ScheduleEval{Schedule: s.Clone(), Ways: j.W.Clone()}
	ok, err := sched.IdleFeasible(timings, s)
	if err != nil {
		return nil, err
	}
	ev.IdleFeasible = ok
	if !ok {
		ev.Feasible = false
		ev.Pall = -1
		return ev, nil
	}
	derived, err := sched.Derive(timings, s)
	if err != nil {
		return nil, err
	}

	ev.Apps = make([]AppResult, len(f.Apps))
	ev.Feasible = true
	// The per-application designs fan out over the process-wide concurrency
	// governor; each design is an index-addressed slot and the error
	// reduction below walks app order, so results are identical for any
	// token availability.
	errs := make([]error, len(f.Apps))
	parallel.Default().ForEach(len(f.Apps), 0, func(i int) {
		app := f.Apps[i]
		opt := f.DesignOpt
		opt.Swarm.Seed = designSeed(j, i)
		d, err := ctrl.DesignHolistic(app.Plant, derived[i], app.Constraints(), opt)
		if err != nil {
			errs[i] = err
			return
		}
		if f.ReportDtMax > 0 {
			// The design's own simulation options at a finer output grid;
			// EvaluateDesign applies the same horizon default the search did.
			sim := opt.Sim
			sim.DtMax = f.ReportDtMax
			sim.InitialGap = derived[i].Gap
			fine, err := ctrl.EvaluateDesign(app.Plant, d.Modes, d.Gains, app.Constraints(), sim)
			if err != nil {
				errs[i] = err
				return
			}
			fine.Evaluations = d.Evaluations
			d = fine
		}
		perf := d.Performance
		// An unstable design has infinite settling time; clamp its
		// performance so weighted sums and search gradients stay
		// finite (it is infeasible either way).
		if math.IsInf(perf, 0) || math.IsNaN(perf) || perf < -10 {
			perf = -10
		}
		ev.Apps[i] = AppResult{
			Name:        app.Name,
			Timing:      derived[i],
			Design:      d,
			Performance: perf,
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: schedule %v app %s: %w", s, f.Apps[i].Name, err)
		}
	}

	ev.Pall = 0
	for i, ar := range ev.Apps {
		ev.Pall += f.Apps[i].Weight * ar.Performance
		// Constraint (3): P_i >= 0, plus stability/saturation/settling
		// feasibility from the design itself.
		if !ar.Design.Feasible || ar.Performance < 0 {
			ev.Feasible = false
		}
	}
	return ev, nil
}

// designSeed derives a deterministic PSO seed from the joint point's
// canonical key and the app index so evaluations are reproducible and
// independent. A shared point's key equals its plain schedule rendering, so
// the seeds — and hence every design — of the schedule-only pipeline are
// unchanged by the partitioning axis.
func designSeed(j sched.JointSchedule, app int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", j.Key(), app)
	v := int64(h.Sum64() & 0x7fffffffffffffff)
	if v == 0 {
		v = 1
	}
	return v
}

// EvaluateJoint evaluates one point of the joint cache-partition + schedule
// co-design space. Shared points (empty Ways) design against the shared
// taskset and hit the same cache entries as EvaluateSchedule, so their
// results are pointer-identical — and therefore bit-identical — to it;
// partitioned points design against the steady-state timings of their way
// allocation.
func (f *Framework) EvaluateJoint(j sched.JointSchedule) (*ScheduleEval, error) {
	if err := f.checkPartition(j); err != nil {
		return nil, err
	}
	ev, _, err := f.cache.Get(j)
	return ev, err
}

// checkPartition rejects a partitioned point whose ways do not fit the
// framework's applications on the platform cache.
func (f *Framework) checkPartition(j sched.JointSchedule) error {
	if !j.Shared() && !j.W.Valid(len(f.Apps), f.Platform.Cache.Ways) {
		return fmt.Errorf("core: partition %v invalid for %d apps on a %d-way cache",
			j.W, len(f.Apps), f.Platform.Cache.Ways)
	}
	return nil
}

// outcome projects a stage-1 evaluation onto the search layer's Outcome.
func outcome(ev *ScheduleEval, err error) (search.Outcome, error) {
	if err != nil {
		return search.Outcome{}, err
	}
	return search.Outcome{Pall: ev.Pall, Feasible: ev.Feasible}, nil
}

// EvalFunc adapts the framework to the search package.
func (f *Framework) EvalFunc() search.EvalFunc {
	return func(s sched.Schedule) (search.Outcome, error) { return outcome(f.EvaluateSchedule(s)) }
}

// JointEvalFunc adapts the framework to the joint searchers.
func (f *Framework) JointEvalFunc() search.JointEvalFunc {
	return func(j sched.JointSchedule) (search.Outcome, error) { return outcome(f.EvaluateJoint(j)) }
}
