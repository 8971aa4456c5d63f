package engine

import (
	"bytes"
	"encoding/json"
	"math"

	"repro/internal/engine/evalcache"
	"repro/internal/sched"
	"repro/internal/search"
)

// ResultRecord is the persistent checkpoint of one completed scenario: the
// serializable summary a resumed sweep needs to reproduce its reports
// bit-identically without re-running the search. Objective values are
// stored as IEEE-754 bit patterns (the *_bits fields) so a resumed run
// renders exactly the digits the original run did; the plain float fields
// exist for humans inspecting store files. The record describes the
// result, not the run that produced it: how many outcomes a run read from
// disk is not persisted (a resumed result reports 0 disk hits), so a warm
// run produces the cold run's bytes and appends no checkpoint again.
//
// A record is written only after its scenario completed successfully and
// lands in the store atomically, so a killed sweep leaves either a
// complete, loadable record or none — never a partial one. The record key
// (see resultKey) hashes the full evaluation space plus every search
// parameter, so a record can never be replayed into a run it does not
// match; bump resultSchema when this struct changes incompatibly.
type ResultRecord struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	Apps int    `json:"apps"`

	Best          []int   `json:"best,omitempty"`
	Ways          []int   `json:"ways,omitempty"`
	BestValueBits uint64  `json:"best_value_bits"`
	BestValue     float64 `json:"best_value"`
	FoundBest     bool    `json:"found_best"`
	Partitioned   bool    `json:"partitioned,omitempty"`

	Evaluated int   `json:"evaluated"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`

	Exhaustive *ExhaustiveRecord `json:"exhaustive,omitempty"`

	// Multi-core placement outcome and its uniform-split baseline
	// (Scenario.Cores > 1 only).
	Multicore        *MulticoreRecord `json:"multicore,omitempty"`
	MulticoreUniform *MulticoreRecord `json:"multicore_uniform,omitempty"`
}

// ExhaustiveRecord summarizes the exhaustive (or joint-exhaustive)
// baseline of a checkpointed scenario.
type ExhaustiveRecord struct {
	Evaluated     int    `json:"evaluated"`
	Feasible      int    `json:"feasible"`
	Best          []int  `json:"best,omitempty"`
	Ways          []int  `json:"ways,omitempty"`
	BestValueBits uint64 `json:"best_value_bits"`
	FoundBest     bool   `json:"found_best"`

	// Shared-subspace optimum (joint scenarios only).
	SharedBest      []int  `json:"shared_best,omitempty"`
	SharedValueBits uint64 `json:"shared_value_bits"`
	FoundShared     bool   `json:"found_shared,omitempty"`

	// Pruned counts bound cuts (Scenario.BranchBound only; the optimum
	// is pinned identical either way).
	Pruned int `json:"pruned,omitempty"`
}

// MulticoreRecord is the persistent summary of one placement search
// (search.MulticoreResult).
type MulticoreRecord struct {
	Cores      int          `json:"cores"`
	Assignment []int        `json:"assignment,omitempty"`
	PerCore    []CoreRecord `json:"per_core,omitempty"`

	BestValueBits uint64  `json:"best_value_bits"`
	BestValue     float64 `json:"best_value"`
	FoundBest     bool    `json:"found_best"`

	Assignments       int  `json:"assignments"`
	AssignmentsPruned int  `json:"assignments_pruned,omitempty"`
	SubtreesPruned    int  `json:"subtrees_pruned,omitempty"`
	Subsets           int  `json:"subsets"`
	Evaluated         int  `json:"evaluated"`
	Feasible          int  `json:"feasible"`
	Enumerated        bool `json:"enumerated"`
}

// CoreRecord is one core's solution inside a MulticoreRecord.
type CoreRecord struct {
	Apps      []int   `json:"apps"`
	M         []int   `json:"m,omitempty"`
	Ways      []int   `json:"ways,omitempty"`
	ValueBits uint64  `json:"value_bits"`
	Value     float64 `json:"value"`
}

// jsonFloat guards the human-readable duplicate of a *_bits field:
// encoding/json rejects IEEE infinities (the no-feasible-schedule best is
// -Inf), which would silently abort the whole checkpoint write. The bits
// field stays exact; readers reconstruct from it alone.
func jsonFloat(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// toMulticoreRecord extracts the persistent summary of a placement search.
func toMulticoreRecord(mc *search.MulticoreResult) *MulticoreRecord {
	rec := &MulticoreRecord{
		Cores:             mc.Cores,
		BestValueBits:     math.Float64bits(mc.BestValue),
		BestValue:         jsonFloat(mc.BestValue),
		FoundBest:         mc.FoundBest,
		Assignments:       mc.Assignments,
		AssignmentsPruned: mc.AssignmentsPruned,
		SubtreesPruned:    mc.SubtreesPruned,
		Subsets:           mc.Subsets,
		Evaluated:         mc.Evaluated,
		Feasible:          mc.Feasible,
		Enumerated:        mc.Enumerated,
	}
	if mc.FoundBest {
		rec.Assignment = append([]int(nil), mc.Assignment...)
		rec.PerCore = make([]CoreRecord, len(mc.PerCore))
		for c, sol := range mc.PerCore {
			rec.PerCore[c] = CoreRecord{
				Apps:      append([]int(nil), sol.Apps...),
				M:         []int(sol.Point.M.Clone()),
				Ways:      []int(sol.Point.W.Clone()),
				ValueBits: math.Float64bits(sol.Value),
				Value:     jsonFloat(sol.Value),
			}
		}
	}
	return rec
}

// fromMulticoreRecord rebuilds the placement-search summary bit-exactly.
func fromMulticoreRecord(rec *MulticoreRecord) *search.MulticoreResult {
	mc := &search.MulticoreResult{
		Cores:             rec.Cores,
		BestValue:         math.Float64frombits(rec.BestValueBits),
		FoundBest:         rec.FoundBest,
		Assignments:       rec.Assignments,
		AssignmentsPruned: rec.AssignmentsPruned,
		SubtreesPruned:    rec.SubtreesPruned,
		Subsets:           rec.Subsets,
		Evaluated:         rec.Evaluated,
		Feasible:          rec.Feasible,
		Enumerated:        rec.Enumerated,
	}
	if rec.FoundBest {
		mc.Assignment = append([]int(nil), rec.Assignment...)
		mc.PerCore = make([]search.CoreSolution, len(rec.PerCore))
		for c, cr := range rec.PerCore {
			mc.PerCore[c] = search.CoreSolution{
				Apps: append([]int(nil), cr.Apps...),
				Point: sched.JointSchedule{
					M: sched.Schedule(cr.M).Clone(),
					W: sched.Ways(cr.Ways).Clone(),
				},
				Value: math.Float64frombits(cr.ValueBits),
				Found: true,
			}
		}
	}
	return mc
}

// toRecord extracts the persistent summary of a completed result.
func toRecord(res *Result) *ResultRecord {
	rec := &ResultRecord{
		Name:          res.Name,
		Seed:          res.Seed,
		Apps:          res.AppCount,
		BestValueBits: math.Float64bits(res.BestValue),
		BestValue:     jsonFloat(res.BestValue),
		FoundBest:     res.FoundBest,
		Evaluated:     res.Evaluated,
		Hits:          res.CacheStats.Hits,
		Misses:        res.CacheStats.Misses,
	}
	if res.FoundBest {
		rec.Best = []int(res.Best.Clone())
	}
	if res.JointHybrid != nil || res.JointExhaustive != nil {
		rec.Partitioned = true
		rec.Ways = []int(res.BestJoint.W.Clone())
	}
	if ex := res.Exhaustive; ex != nil {
		rec.Exhaustive = &ExhaustiveRecord{
			Evaluated:     ex.Evaluated,
			Feasible:      ex.Feasible,
			BestValueBits: math.Float64bits(ex.BestValue),
			FoundBest:     ex.FoundBest,
		}
		if ex.FoundBest {
			rec.Exhaustive.Best = []int(ex.Best.Clone())
		}
	}
	if ex := res.JointExhaustive; ex != nil {
		rec.Exhaustive = &ExhaustiveRecord{
			Evaluated:       ex.Evaluated,
			Feasible:        ex.Feasible,
			BestValueBits:   math.Float64bits(ex.BestValue),
			FoundBest:       ex.FoundBest,
			SharedValueBits: math.Float64bits(ex.BestSharedValue),
			FoundShared:     ex.FoundShared,
			Pruned:          res.JointPruned,
		}
		if ex.FoundBest {
			rec.Exhaustive.Best = []int(ex.Best.M.Clone())
			rec.Exhaustive.Ways = []int(ex.Best.W.Clone())
		}
		if ex.FoundShared {
			rec.Exhaustive.SharedBest = []int(ex.BestShared.M.Clone())
		}
	}
	if res.Multicore != nil {
		rec.Multicore = toMulticoreRecord(res.Multicore)
	}
	if res.MulticoreUniform != nil {
		rec.MulticoreUniform = toMulticoreRecord(res.MulticoreUniform)
	}
	return rec
}

// fromRecord rebuilds the summary Result of a checkpointed scenario. The
// reconstruction carries everything the sweep reports consume (best point,
// objective value, evaluation and cache counters, exhaustive summary);
// per-walk traces (Hybrid) and the stage-1 Framework are not persisted, so
// they stay nil — consumers needing them re-run the scenario without a
// resume store. Name and Seed come from the current scenario, not the
// record, so relabeled grids resume cleanly.
func fromRecord(scn Scenario, rec *ResultRecord) *Result {
	res := &Result{
		Name:      scn.Name,
		Seed:      scn.Seed,
		AppCount:  rec.Apps,
		BestValue: math.Float64frombits(rec.BestValueBits),
		FoundBest: rec.FoundBest,
		Evaluated: rec.Evaluated,
		Resumed:   true,
		CacheStats: evalcache.Stats{
			Hits:   rec.Hits,
			Misses: rec.Misses,
		},
	}
	if rec.FoundBest {
		res.Best = sched.Schedule(rec.Best).Clone()
	}
	if rec.Partitioned {
		res.BestJoint = sched.JointSchedule{M: res.Best.Clone(), W: sched.Ways(rec.Ways).Clone()}
	}
	if ex := rec.Exhaustive; ex != nil {
		if rec.Partitioned {
			jres := &search.JointExhaustiveResult{
				Evaluated:       ex.Evaluated,
				Feasible:        ex.Feasible,
				BestValue:       math.Float64frombits(ex.BestValueBits),
				FoundBest:       ex.FoundBest,
				BestSharedValue: math.Float64frombits(ex.SharedValueBits),
				FoundShared:     ex.FoundShared,
			}
			if ex.FoundBest {
				jres.Best = sched.JointSchedule{
					M: sched.Schedule(ex.Best).Clone(),
					W: sched.Ways(ex.Ways).Clone(),
				}
			}
			if ex.FoundShared {
				jres.BestShared = sched.JointSchedule{M: sched.Schedule(ex.SharedBest).Clone()}
			}
			res.JointExhaustive = jres
			res.JointPruned = ex.Pruned
		} else {
			res.Exhaustive = &search.ExhaustiveResult{
				Evaluated: ex.Evaluated,
				Feasible:  ex.Feasible,
				BestValue: math.Float64frombits(ex.BestValueBits),
				FoundBest: ex.FoundBest,
			}
			if ex.FoundBest {
				res.Exhaustive.Best = sched.Schedule(ex.Best).Clone()
			}
		}
	}
	if rec.Multicore != nil {
		res.Multicore = fromMulticoreRecord(rec.Multicore)
	}
	if rec.MulticoreUniform != nil {
		res.MulticoreUniform = fromMulticoreRecord(rec.MulticoreUniform)
	}
	return res
}

// loadRecord fetches and decodes the checkpoint record for key, treating
// any decode failure as a miss (the scenario simply re-runs).
func loadRecord(backend evalcache.Backend, key string) (*ResultRecord, bool) {
	data, ok := backend.Get(key)
	if !ok {
		return nil, false
	}
	var rec ResultRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, false
	}
	return &rec, true
}

// saveRecord persists the checkpoint record (best-effort, like every store
// write). With check set it first reads the key and writes nothing if the
// store already holds these exact bytes: an append-only store would keep
// the copy. A resumed run has just missed the key, so it passes false.
func saveRecord(backend evalcache.Backend, key string, res *Result, check bool) {
	data, err := json.Marshal(toRecord(res))
	if err != nil {
		return
	}
	if check {
		if old, ok := backend.Get(key); ok && bytes.Equal(old, data) {
			return
		}
	}
	backend.Put(key, data)
}
