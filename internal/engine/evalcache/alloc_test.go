package evalcache

import (
	"testing"

	"repro/internal/race"
	"repro/internal/sched"
)

// TestGetHitAllocs pins the memory-tier hit path of Get and GetLast at
// zero allocations, for plain and joint points, with and without a
// persistent tier attached: a hit packs the point's fixed-size key and
// never renders its string key.
func TestGetHitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := sched.Schedule{3, 1, 2}
	j := sched.JointSchedule{M: s, W: sched.Ways{2, 1, 1}}
	mem := NewCache(func(j sched.JointSchedule) (int, error) { return len(j.M), nil })
	tiered := NewTiered(func(j sched.JointSchedule) (int, error) { return len(j.M), nil },
		newMemBackend(), "ns/", intCodec())
	for name, c := range map[string]*Cache[sched.JointSchedule, sched.PointKey, int]{"memory": mem, "tiered": tiered} {
		for _, p := range []sched.JointSchedule{sched.SharedPoint(s), j} {
			if _, _, err := c.Get(p); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() { c.Get(p) }); n != 0 {
				t.Errorf("%s cache: hit on %v allocates %v times", name, p, n)
			}
			if n := testing.AllocsPerRun(100, func() { c.GetLast(p) }); n != 0 {
				t.Errorf("%s cache: GetLast hit on %v allocates %v times", name, p, n)
			}
		}
	}
}

// TestGetLastMissAllocs pins the last-reader miss: memory-only, it
// allocates nothing beyond the evaluator, leaves the shard maps as they
// were, and counts one distinct key in Len.
func TestGetLastMissAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := NewCache(func(s sched.Schedule) (int, error) { return s[0], nil })
	kept := sched.Schedule{1, 1}
	if _, _, err := c.Get(kept); err != nil {
		t.Fatal(err)
	}
	p := sched.Schedule{3, 1, 2}
	if n := testing.AllocsPerRun(100, func() { c.GetLast(p) }); n != 0 {
		t.Errorf("GetLast miss allocates %v times", n)
	}
	before := c.Len()
	v, executed, err := c.GetLast(p)
	if err != nil || v != 3 || !executed {
		t.Fatalf("GetLast miss = (%d, %v, %v), want (3, true, nil)", v, executed, err)
	}
	if got := c.Len(); got != before+1 {
		t.Errorf("Len after a GetLast miss = %d, want %d", got, before+1)
	}
	slots := 0
	for i := range c.shards {
		sh := &c.shards[i]
		slots += len(sh.m)
		if sh.side != nil {
			t.Errorf("GetLast miss left shard %d a side map %v", i, sh.side)
		}
	}
	if slots != 1 {
		t.Errorf("GetLast miss changed the slots: %d, want the 1 read before", slots)
	}
	if mk, err := kept.MemKey(); err != nil {
		t.Fatal(err)
	} else if _, ok := c.shardFor(mk).m[mk]; !ok {
		t.Error("the slot of the point read before is gone")
	}
}

// TestUncontendedMissMakesNoWaitChannel pins the lazy side state: a miss
// no other requester waited on completes its slot and creates no side map.
func TestUncontendedMissMakesNoWaitChannel(t *testing.T) {
	c := NewCache(func(s sched.Schedule) (int, error) { return 0, nil })
	if _, _, err := c.Get(sched.Schedule{1, 2}); err != nil {
		t.Fatal(err)
	}
	for i := range c.shards {
		for k, e := range c.shards[i].m {
			if e.state != done {
				t.Errorf("slot %v: state %d after an uncontended miss, want done", k, e.state)
			}
		}
		if side := c.shards[i].side; side != nil {
			t.Errorf("side map %v after an uncontended miss, want none", side)
		}
	}
}

// TestGetRejectsUnpackablePoint pins that a point the memory tier cannot
// key fails with the packing error, without evaluating or counting.
func TestGetRejectsUnpackablePoint(t *testing.T) {
	evals := 0
	c := NewCache(func(s sched.Schedule) (int, error) { evals++; return 0, nil })
	if _, _, err := c.Get(sched.Schedule{1, sched.MaxPackedCoord + 1}); err == nil {
		t.Fatal("unpackable point accepted")
	}
	if evals != 0 || c.Len() != 0 || c.Stats().Lookups() != 0 {
		t.Errorf("unpackable point touched the cache: evals=%d len=%d stats=%+v", evals, c.Len(), c.Stats())
	}
}
