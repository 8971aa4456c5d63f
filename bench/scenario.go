package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/parallel"
)

// outcome is the part of a scenario result that must be identical however
// the scenario was computed: serially or concurrently, from a cold store,
// a warm one or a checkpoint, locally or across the cluster, traced or
// not.
type outcome struct {
	best      string // winning schedule, with its partition when joint
	valueBits uint64
	found     bool
	evaluated int
	hits      int64 // search-cache memory-tier hits
	misses    int64 // search-cache memory-tier misses (disk loads included)
}

func outcomeOf(r *engine.Result) outcome {
	best := r.Best.String()
	if len(r.BestJoint.W) > 0 {
		best = r.BestJoint.String()
	}
	return outcome{
		best:      best,
		valueBits: math.Float64bits(r.BestValue),
		found:     r.FoundBest,
		evaluated: r.Evaluated,
		hits:      r.CacheStats.Hits,
		misses:    r.CacheStats.Misses,
	}
}

func (o outcome) String() string {
	return fmt.Sprintf("best %s value %v found %v evaluated %d hits %d misses %d",
		o.best, math.Float64frombits(o.valueBits), o.found, o.evaluated, o.hits, o.misses)
}

// sweepOne runs one scenario through engine.Sweep, the entry point every
// batch consumer uses.
func sweepOne(cfg engine.Config, scn engine.Scenario) (*engine.Result, error) {
	rs, err := engine.Sweep(cfg, []engine.Scenario{scn})
	if err != nil {
		return nil, err
	}
	if rs[0] == nil {
		return nil, fmt.Errorf("scenario %s: no result", scn.Name)
	}
	return rs[0], nil
}

// permutation returns a seeded permutation of [0, n) for pass p.
func permutation(seed int64, p, n int) []int {
	return rand.New(rand.NewSource(splitmix(seed, uint64(p)))).Perm(n)
}

// executorDelta reports the process-wide executor's counters accumulated
// since before, plus its high-water mark.
func executorDelta(before parallel.Stats, layer map[string]float64) {
	now := parallel.Default().Stats()
	layer["parallel.waited"] = float64(now.Waited - before.Waited)
	layer["parallel.denied"] = float64(now.Denied - before.Denied)
	layer["parallel.peak_in_flight"] = float64(now.PeakInFlight)
}

// layerTimes records the self time of the search layer and the trace's
// coverage: the share of the traced roots' time that layer spans and
// timers account for, the rest being the benchmark's own glue.
func layerTimes(e *env, layer map[string]float64) {
	roots := e.tr.rootTotal()
	self := e.tr.layerSelf()
	layer["trace.coverage_pct"] = 100 * ratio(roots-self["bench"], roots)
	layer["search.self_s"] = self["search"]
}
