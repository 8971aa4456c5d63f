package sched

import (
	"math/rand"
	"reflect"
	"testing"
)

// bruteFeasible is the plain odometer over [1, maxM]^n filtered by
// IdleFeasible: the oracle of FeasibleTree's pruned walk.
func bruteFeasible(t *testing.T, apps []AppTiming, maxM int) []Schedule {
	t.Helper()
	var out []Schedule
	cur := RoundRobin(len(apps))
	for {
		ok, err := IdleFeasible(apps, cur)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, cur.Clone())
		}
		i := len(cur) - 1
		for ; i >= 0; i-- {
			if cur[i]++; cur[i] <= maxM {
				break
			}
			cur[i] = 1
		}
		if i < 0 {
			return out
		}
	}
}

// randomApps draws a taskset whose idle budgets bind at small burst
// lengths, with an occasional unconstrained application.
func randomApps(rng *rand.Rand, n int) []AppTiming {
	apps := make([]AppTiming, n)
	for i := range apps {
		cold := 20e-6 + 80e-6*rng.Float64()
		a := AppTiming{Name: "a", ColdWCET: cold, WarmWCET: cold * (0.2 + 0.8*rng.Float64())}
		if rng.Intn(5) > 0 {
			a.MaxIdle = cold * float64(n) * (1 + 3*rng.Float64())
		}
		apps[i] = a
	}
	return apps
}

// TestFeasibleTreeMatchesOdometer pins that the prefix-infeasibility cut
// prunes only infeasible subtrees: the walk visits exactly the odometer's
// idle-feasible schedules, in the same order.
func TestFeasibleTreeMatchesOdometer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	feasible, box := 0, 0
	for trial := 0; trial < 300; trial++ {
		apps := randomApps(rng, 1+rng.Intn(4))
		maxM := 1 + rng.Intn(7)
		got, err := EnumerateFeasible(apps, maxM)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFeasible(t, apps, maxM); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (maxM %d): tree %v, odometer %v", trial, maxM, got, want)
		}
		feasible += len(got)
		size := 1
		for range apps {
			size *= maxM
		}
		box += size
	}
	// The tasksets must exercise the cut: many points on either side.
	if feasible < box/10 || feasible > box*9/10 {
		t.Errorf("%d of %d box points feasible: the idle budgets barely bind", feasible, box)
	}
}
