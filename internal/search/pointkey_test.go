package search

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// keyed is any search point with both identities.
type keyed interface {
	Key() string
	MemKey() (sched.PointKey, error)
}

// randomPoint draws a schedule, a shared or partitioned joint point, or a
// core point from a small coordinate range (0 included), so that distinct
// values often render equal prefixes and equal values recur.
func randomPoint(rng *rand.Rand) keyed {
	ints := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(4)
		}
		return out
	}
	m := sched.Schedule(ints(rng.Intn(4)))
	switch rng.Intn(4) {
	case 0:
		return m
	case 1:
		return sched.SharedPoint(m)
	case 2:
		return sched.JointSchedule{M: m, W: sched.Ways(ints(rng.Intn(4)))}
	default:
		p := sched.JointSchedule{M: m}
		if rng.Intn(2) == 0 {
			p.W = sched.Ways(ints(rng.Intn(4)))
		}
		return CorePoint{Apps: ints(rng.Intn(4)), Point: p}
	}
}

// TestPointKeyBijection pins that the packed memory keys identify points
// exactly like their string keys, across every point type: equal memory
// keys if and only if equal Key strings. That makes every memory-tier
// statistic (hit ratios, evaluation counts) identical to string keying.
func TestPointKeyBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := make([]keyed, 600)
	mks := make([]sched.PointKey, len(pool))
	for i := range pool {
		pool[i] = randomPoint(rng)
		var err error
		if mks[i], err = pool[i].MemKey(); err != nil {
			t.Fatalf("%#v: %v", pool[i], err)
		}
	}
	equal := 0
	for a := range pool {
		for b := range pool {
			sameKey := pool[a].Key() == pool[b].Key()
			if sameMem := mks[a] == mks[b]; sameMem != sameKey {
				t.Fatalf("%#v vs %#v: equal memory keys %v, equal string keys %v", pool[a], pool[b], sameMem, sameKey)
			}
			if sameKey && a != b {
				equal++
			}
		}
	}
	if equal == 0 {
		t.Error("no two distinct draws collided: the bijection check saw only inequalities")
	}
}

// TestSharedPointPacksLikeSchedule pins the shared subspace's keying: a
// shared joint point packs exactly like its plain schedule, and no core
// point packs like either.
func TestSharedPointPacksLikeSchedule(t *testing.T) {
	s := sched.Schedule{3, 1, 2}
	sk, err := s.MemKey()
	if err != nil {
		t.Fatal(err)
	}
	jk, err := sched.SharedPoint(s).MemKey()
	if err != nil {
		t.Fatal(err)
	}
	if sk != jk {
		t.Errorf("shared point key %v != schedule key %v", jk, sk)
	}
	ck, err := CorePoint{Point: sched.SharedPoint(s)}.MemKey()
	if err != nil {
		t.Fatal(err)
	}
	if ck == sk {
		t.Error("a core point with no applications packs like a plain schedule")
	}
}

// TestPointKeyRejectsUnpackable pins the packing errors: coordinates
// outside [0, MaxPackedCoord] and points too large for the key.
func TestPointKeyRejectsUnpackable(t *testing.T) {
	many := func(n, v int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for name, p := range map[string]keyed{
		"burst 256":         sched.Schedule{1, sched.MaxPackedCoord + 1},
		"negative burst":    sched.Schedule{-1, 1},
		"way 256":           sched.JointSchedule{M: sched.Schedule{1, 1}, W: sched.Ways{1, sched.MaxPackedCoord + 1}},
		"app index 256":     CorePoint{Apps: []int{0, sched.MaxPackedCoord + 1}, Point: sched.SharedPoint(sched.Schedule{1, 1})},
		"15 partitioned":    sched.JointSchedule{M: many(15, 1), W: many(15, 1)},
		"30 shared":         sched.Schedule(many(30, 1)),
		"10-app core point": CorePoint{Apps: many(10, 0), Point: sched.JointSchedule{M: many(10, 1), W: many(10, 1)}},
	} {
		if k, err := p.MemKey(); err == nil {
			t.Errorf("%s: packed as %v, want an error", name, k)
		}
	}
	// The largest points that do fit.
	for name, p := range map[string]keyed{
		"29 shared":         sched.Schedule(many(29, sched.MaxPackedCoord)),
		"14 partitioned":    sched.JointSchedule{M: many(14, 1), W: many(14, 1)},
		"9-app core point":  CorePoint{Apps: many(9, 0), Point: sched.JointSchedule{M: many(9, 1), W: many(9, 1)}},
		"zero coordinates":  sched.Schedule{0, 0},
		"empty core subset": CorePoint{},
	} {
		if _, err := p.MemKey(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
