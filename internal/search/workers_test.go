package search

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sched"
)

// TestExhaustiveCachedWorkerCountBitIdentical pins the chunked, in-order
// fold of the governor-backed exact searches without a bound: any worker cap
// yields the serial result bit for bit, on boxes spanning several chunks,
// in the schedule and in the joint space.
func TestExhaustiveCachedWorkerCountBitIdentical(t *testing.T) {
	apps := []sched.AppTiming{
		{Name: "A", ColdWCET: 60e-6, WarmWCET: 35e-6, MaxIdle: 700e-6},
		{Name: "B", ColdWCET: 40e-6, WarmWCET: 22e-6, MaxIdle: 600e-6},
		{Name: "C", ColdWCET: 80e-6, WarmWCET: 50e-6, MaxIdle: 900e-6},
	}
	score := func(m sched.Schedule, w sched.Ways) Outcome {
		// A cheap deterministic score with full float dynamics.
		p := 0.0
		for i := range m {
			p += math.Sin(float64(m[i])*1.7 + float64(i))
		}
		for i := range w {
			p += 0.3 * math.Cos(float64(w[i])+float64(i))
		}
		return Outcome{Pall: p, Feasible: p > 0}
	}
	eval := func(s sched.Schedule) (Outcome, error) { return score(s, nil), nil }
	const maxM = 10
	base, err := ExhaustiveCached(NewCache(eval), apps, maxM, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Evaluated <= 2*exactChunk {
		t.Fatalf("schedule box of %d points spans fewer than three chunks", base.Evaluated)
	}
	pt := sched.PartitionTimings{Shared: apps, ByWays: [][]sched.AppTiming{apps, apps, apps, apps, apps}}
	jeval := func(j sched.JointSchedule) (Outcome, error) { return score(j.M, j.W), nil }
	jbase, err := JointExact(NewJointCache(jeval), pt, nil, maxM, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 64} {
		got, err := ExhaustiveCached(NewCache(eval), apps, maxM, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: result differs from serial", workers)
		}
		jgot, err := JointExact(NewJointCache(jeval), pt, nil, maxM, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jgot, jbase) {
			t.Fatalf("workers=%d: joint result differs from serial", workers)
		}
	}
}
