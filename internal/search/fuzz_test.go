package search_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/engine"
	"repro/internal/search"
	"repro/internal/wcet"
)

// FuzzExactMatchesEnumeration pins the one exact searcher against the plain
// enumeration oracle on random tasksets (2-4 apps, 1-8 ways, maxM <= 4)
// under the timing objective: with no bound, the trivial bound and the
// tight timing bound, at 1 and 4 workers, the optimum and the
// shared-subspace optimum (points and value bits) are the oracle's.
// Without a bound the search evaluates exactly the oracle's box; with one it
// evaluates no more, and the same points at any worker count.
func FuzzExactMatchesEnumeration(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), uint8(3))
	f.Add(int64(7), uint8(0), uint8(7), uint8(2))
	f.Add(int64(42), uint8(2), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, apps, ways, maxM uint8) {
		n, w, m := 2+int(apps%3), 1+int(ways%8), 1+int(maxM%4)
		plat := wcet.Platform{ClockHz: 20e6, Cache: cachesim.Config{
			Lines: 32 * w, LineSize: 16, Ways: w, Policy: cachesim.LRU, HitCycles: 1, MissCycles: 100,
		}}
		pt, weights, err := engine.RandomPartitionTaskset(rand.New(rand.NewSource(seed)),
			engine.Scenario{NumApps: n, Platform: plat})
		if err != nil {
			t.Fatal(err)
		}
		eval := engine.JointTimingEval(pt, weights)
		want, err := search.Enumerate(search.NewJointCache(eval), pt, m)
		if err != nil {
			t.Fatal(err)
		}
		bounds := []struct {
			name  string
			bound search.Bounder
		}{
			{"none", nil},
			{"trivial", search.TrivialBounder(weights)},
			{"timing", engine.TimingBounder(pt, weights, m)},
		}
		for _, b := range bounds {
			var serial *search.JointExhaustiveResult
			for _, workers := range []int{1, 4} {
				got, err := search.JointExact(search.NewJointCache(eval), pt, b.bound, m, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got.FoundBest != want.FoundBest || !got.Best.Equal(want.Best) ||
					math.Float64bits(got.BestValue) != math.Float64bits(want.BestValue) {
					t.Fatalf("%s bound, %d workers: best %v (%v), oracle %v (%v)",
						b.name, workers, got.Best, got.BestValue, want.Best, want.BestValue)
				}
				if got.FoundShared != want.FoundShared || !got.BestShared.Equal(want.BestShared) ||
					math.Float64bits(got.BestSharedValue) != math.Float64bits(want.BestSharedValue) {
					t.Fatalf("%s bound, %d workers: shared best %v (%v), oracle %v (%v)",
						b.name, workers, got.BestShared, got.BestSharedValue, want.BestShared, want.BestSharedValue)
				}
				switch {
				case b.bound == nil:
					if got.Evaluated != want.Evaluated || got.Feasible != want.Feasible || got.Pruned != 0 {
						t.Fatalf("%d workers: evaluated %d, feasible %d, pruned %d; oracle %d, %d",
							workers, got.Evaluated, got.Feasible, got.Pruned, want.Evaluated, want.Feasible)
					}
				case got.Evaluated > want.Evaluated:
					t.Fatalf("%s bound, %d workers: evaluated %d > oracle %d", b.name, workers, got.Evaluated, want.Evaluated)
				case serial != nil && !reflect.DeepEqual(got, serial):
					t.Fatalf("%s bound: 4 workers %+v, 1 worker %+v", b.name, got, serial)
				}
				serial = got
			}
		}
	})
}
