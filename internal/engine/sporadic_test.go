package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/search"
)

// perCallSporadicScore is the per-call composition of the sporadic score:
// the arrival model is built (and its jitter drawn) afresh for every
// schedule, then the same closed form is applied to its stats.
// sched pins the model's stats to the heap-driven event timeline bit for
// bit, so agreement here carries SporadicTimingEval back to that timeline.
func perCallSporadicScore(timings []sched.AppTiming, weights []float64, arr sched.Arrival, s sched.Schedule) (search.Outcome, error) {
	ok, err := sched.IdleFeasible(timings, s)
	if err != nil {
		return search.Outcome{}, err
	}
	if !ok {
		return search.Outcome{Pall: -1, Feasible: false}, nil
	}
	model, err := sched.NewSporadicModel(timings, arr)
	if err != nil {
		return search.Outcome{}, err
	}
	stats, err := model.Stats(nil, s)
	if err != nil {
		return search.Outcome{}, err
	}
	pall := 0.0
	feasible := true
	for i, a := range timings {
		limit := a.MaxIdle
		if limit <= 0 {
			limit = stats[i].MeanPeriod * float64(s[i])
		} else if stats[i].MaxPeriod > a.MaxIdle+1e-12 {
			feasible = false
		}
		p := 1 - (stats[i].MeanPeriod+stats[i].MaxPeriod)/(2*limit)
		if p < 0 {
			feasible = false
		}
		pall += weights[i] * p
	}
	return search.Outcome{Pall: pall, Feasible: feasible}, nil
}

// scheduleBox lists every schedule with 1 <= m_i <= maxM, feasible or not.
func scheduleBox(n, maxM int) []sched.Schedule {
	out := []sched.Schedule{{}}
	for i := 0; i < n; i++ {
		var next []sched.Schedule
		for _, prefix := range out {
			for m := 1; m <= maxM; m++ {
				next = append(next, append(append(sched.Schedule(nil), prefix...), m))
			}
		}
		out = next
	}
	return out
}

// TestSporadicTimingEvalMatchesPerCall: the compiled evaluator scores
// every schedule of the box exactly like the per-call composition — same
// Pall bits, same feasibility — across random tasksets and jitters, with
// one evaluator reused over the whole box.
func TestSporadicTimingEvalMatchesPerCall(t *testing.T) {
	platforms := PlatformVariants()
	feasibleSeen := 0
	for seed := int64(0); seed < 6; seed++ {
		scn := Scenario{Seed: 500 + seed, NumApps: 3 + int(seed)%3, Platform: platforms[int(seed)%len(platforms)]}
		timings, weights, err := RandomTaskset(rand.New(rand.NewSource(scn.Seed)), scn)
		if err != nil {
			t.Fatal(err)
		}
		for _, jitter := range []float64{0.05, 0.4, 0.999} {
			arr := sched.Arrival{Model: sched.ArrivalSporadic, Jitter: jitter, Seed: 31 + seed}.WithDefaults()
			eval := SporadicTimingEval(timings, weights, arr)
			for _, s := range scheduleBox(len(timings), 4) {
				got, err := eval(s)
				if err != nil {
					t.Fatal(err)
				}
				want, err := perCallSporadicScore(timings, weights, arr, s)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got.Pall) != math.Float64bits(want.Pall) || got.Feasible != want.Feasible {
					t.Fatalf("seed %d jitter %g schedule %v: compiled %+v, per call %+v", seed, jitter, s, got, want)
				}
				if got.Feasible {
					feasibleSeen++
				}
			}
		}
	}
	if feasibleSeen == 0 {
		t.Fatal("no feasible schedule was compared")
	}
}

// TestSporadicTimingEvalInvalidArrival: an invalid arrival model fails
// every call that passes the idle check, not only the first.
func TestSporadicTimingEvalInvalidArrival(t *testing.T) {
	timings := []sched.AppTiming{
		{Name: "A", ColdWCET: 3e-4, WarmWCET: 2e-4},
		{Name: "B", ColdWCET: 4e-4, WarmWCET: 2e-4},
	}
	eval := SporadicTimingEval(timings, []float64{0.5, 0.5}, sched.Arrival{Model: sched.ArrivalSporadic, Jitter: 1.5})
	for i := 0; i < 3; i++ {
		if _, err := eval(sched.Schedule{1, 2}); err == nil {
			t.Fatalf("call %d accepted jitter 1.5", i)
		}
	}
}
