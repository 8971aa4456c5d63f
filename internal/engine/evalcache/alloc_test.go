package evalcache

import (
	"testing"

	"repro/internal/race"
	"repro/internal/sched"
)

// TestGetHitAllocs pins the memory-tier hit path at zero allocations, for
// plain and joint points, with and without a persistent tier attached: a
// hit packs the point's fixed-size key and never renders its string key.
func TestGetHitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := sched.Schedule{3, 1, 2}
	j := sched.JointSchedule{M: s, W: sched.Ways{2, 1, 1}}
	mem := NewCache(0, func(j sched.JointSchedule) (int, error) { return len(j.M), nil })
	tiered := NewTiered(0, func(j sched.JointSchedule) (int, error) { return len(j.M), nil },
		newMemBackend(), "ns/", intCodec())
	for name, c := range map[string]*Cache[sched.JointSchedule, sched.PointKey, int]{"memory": mem, "tiered": tiered} {
		for _, p := range []sched.JointSchedule{sched.SharedPoint(s), j} {
			if _, _, err := c.Get(p); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() { c.Get(p) }); n != 0 {
				t.Errorf("%s cache: hit on %v allocates %v times", name, p, n)
			}
		}
	}
}

// TestUncontendedMissMakesNoWaitChannel pins the lazy singleflight channel:
// only a requester that finds the entry in flight creates one.
func TestUncontendedMissMakesNoWaitChannel(t *testing.T) {
	c := NewCache(1, func(s sched.Schedule) (int, error) { return 0, nil })
	if _, _, err := c.Get(sched.Schedule{1, 2}); err != nil {
		t.Fatal(err)
	}
	for k, e := range c.shards[0].m {
		if !e.done || e.wait != nil {
			t.Errorf("entry %v: done=%v wait=%v after an uncontended miss", k, e.done, e.wait)
		}
	}
}

// TestGetRejectsUnpackablePoint pins that a point the memory tier cannot
// key fails with the packing error, without evaluating or counting.
func TestGetRejectsUnpackablePoint(t *testing.T) {
	evals := 0
	c := NewCache(0, func(s sched.Schedule) (int, error) { evals++; return 0, nil })
	if _, _, err := c.Get(sched.Schedule{1, sched.MaxPackedCoord + 1}); err == nil {
		t.Fatal("unpackable point accepted")
	}
	if evals != 0 || c.Len() != 0 || c.Stats().Lookups() != 0 {
		t.Errorf("unpackable point touched the cache: evals=%d len=%d stats=%+v", evals, c.Len(), c.Stats())
	}
}
