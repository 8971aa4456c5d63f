package engine

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/ctrl"
	"repro/internal/sched"
	"repro/internal/search"
)

// The reference evaluators below are the timing objective as it was written
// before its closed form, table gathering and subset views were shared: one
// hand-kept copy per evaluator. TestTimingEvaluatorsMatchReference holds the
// production evaluators to them bit for bit.

func refTimingScore(timings []sched.AppTiming, weights []float64, s sched.Schedule) (search.Outcome, error) {
	ok, err := sched.IdleFeasible(timings, s)
	if err != nil {
		return search.Outcome{}, err
	}
	if !ok {
		return search.Outcome{Pall: -1, Feasible: false}, nil
	}
	pall := 0.0
	feasible := true
	for i, a := range timings {
		gap := sched.BurstGap(timings, s, i)
		hyper := sched.DerivedHyperPeriod(a, s[i], gap)
		limit := a.MaxIdle
		if limit <= 0 {
			limit = hyper
		}
		hbar := hyper / float64(s[i])
		p := 1 - (hbar+sched.DerivedMaxPeriod(a, s[i], gap))/(2*limit)
		if p < 0 {
			feasible = false
		}
		pall += weights[i] * p
	}
	return search.Outcome{Pall: pall, Feasible: feasible}, nil
}

func refSporadicTimingEval(timings []sched.AppTiming, weights []float64, arr sched.Arrival) search.EvalFunc {
	model, modelErr := sched.NewSporadicModel(timings, arr)
	return func(s sched.Schedule) (search.Outcome, error) {
		ok, err := sched.IdleFeasible(timings, s)
		if err != nil {
			return search.Outcome{}, err
		}
		if !ok {
			return search.Outcome{Pall: -1, Feasible: false}, nil
		}
		if modelErr != nil {
			return search.Outcome{}, modelErr
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
}

func refJointTimingScore(pt sched.PartitionTimings, weights []float64, j sched.JointSchedule) (search.Outcome, error) {
	if !j.W.Valid(pt.Apps(), pt.TotalWays()) {
		return search.Outcome{Pall: -1, Feasible: false}, nil
	}
	timings, err := pt.Timings(j)
	if err != nil {
		return search.Outcome{}, err
	}
	return refTimingScore(timings, weights, j.M)
}

// refMulticoreTimingEval keeps the mutex-guarded per-subset view cache the
// reference evaluator scored through.
func refMulticoreTimingEval(pt sched.PartitionTimings, weights []float64) search.CoreEvalFunc {
	type coreView struct {
		sub     sched.PartitionTimings
		weights []float64
	}
	var (
		mu    sync.Mutex
		views = map[sched.PointKey]*coreView{}
	)
	view := func(apps []int) (*coreView, error) {
		key, err := sched.PackPoint(apps, true, nil, nil)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		if v, ok := views[key]; ok {
			return v, nil
		}
		sub, err := search.SubPartition(pt, apps)
		if err != nil {
			return nil, err
		}
		v := &coreView{sub: sub, weights: make([]float64, len(apps))}
		for k, i := range apps {
			v.weights[k] = weights[i]
		}
		views[key] = v
		return v, nil
	}
	return func(p search.CorePoint) (search.Outcome, error) {
		v, err := view(p.Apps)
		if err != nil {
			return search.Outcome{}, err
		}
		return refJointTimingScore(v.sub, v.weights, p.Point)
	}
}

// sameOutcome compares two evaluations bit for bit: Pall bits, feasibility
// and whether an error occurred. It counts feasible points in seen, keyed by
// the label's first word, so callers can insist a box was not all rejects.
func sameOutcome(t *testing.T, seen map[string]int, label string, got search.Outcome, gotErr error, want search.Outcome, wantErr error) {
	t.Helper()
	if gotErr == nil && got.Feasible {
		seen[strings.Fields(label)[0]]++
	}
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", label, gotErr, wantErr)
	}
	if math.Float64bits(got.Pall) != math.Float64bits(want.Pall) || got.Feasible != want.Feasible {
		t.Fatalf("%s: %+v, reference %+v", label, got, want)
	}
}

// refTables returns the partition tables the reference test sweeps: random
// tasksets on a 4-way cache, plus a hand-written one with unconstrained
// applications (MaxIdle 0) so the hyper-period normalization is covered.
func refTables(t *testing.T) []struct {
	pt      sched.PartitionTimings
	weights []float64
} {
	t.Helper()
	var out []struct {
		pt      sched.PartitionTimings
		weights []float64
	}
	for seed := int64(0); seed < 4; seed++ {
		scn := Scenario{Seed: 700 + seed, NumApps: 2 + int(seed)%3, Platform: fourWayPlatform()}
		pt, weights, err := RandomPartitionTaskset(rand.New(rand.NewSource(scn.Seed)), scn)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, struct {
			pt      sched.PartitionTimings
			weights []float64
		}{pt, weights})
	}
	free := sched.PartitionTimings{
		Shared: []sched.AppTiming{
			{Name: "A", ColdWCET: 3e-4, WarmWCET: 2e-4},
			{Name: "B", ColdWCET: 4e-4, WarmWCET: 1e-4, MaxIdle: 2e-3},
			{Name: "C", ColdWCET: 5e-4, WarmWCET: 3e-4},
		},
	}
	for w := 1; w <= 4; w++ {
		row := make([]sched.AppTiming, len(free.Shared))
		for i, a := range free.Shared {
			a.ColdWCET = a.WarmWCET * (1 + 0.5/float64(w))
			a.WarmWCET = a.ColdWCET
			row[i] = a
		}
		free.ByWays = append(free.ByWays, row)
	}
	return append(out, struct {
		pt      sched.PartitionTimings
		weights []float64
	}{free, []float64{0.3, 0.5, 0.2}})
}

// TestTimingEvaluatorsMatchReference: the periodic, sporadic, joint and
// multi-core timing evaluators score every point exactly like their
// reference copies — every box point, joint points with invalid partitions,
// and core points with out-of-range, unsorted or empty subsets.
func TestTimingEvaluatorsMatchReference(t *testing.T) {
	const maxM = 4
	seen := map[string]int{}
	for ti, tab := range refTables(t) {
		pt, weights := tab.pt, tab.weights
		n := pt.Apps()
		box := scheduleBox(n, maxM)

		plain := TimingEval(pt.Shared, weights)
		arr := sched.Arrival{Model: sched.ArrivalSporadic, Jitter: 0.3, Seed: int64(ti)}.WithDefaults()
		spor, refSpor := SporadicTimingEval(pt.Shared, weights, arr), refSporadicTimingEval(pt.Shared, weights, arr)
		for _, s := range box {
			got, err := plain(s)
			want, wantErr := refTimingScore(pt.Shared, weights, s)
			sameOutcome(t, seen, "periodic "+s.String(), got, err, want, wantErr)
			got, err = spor(s)
			want, wantErr = refSpor(s)
			sameOutcome(t, seen, "sporadic "+s.String(), got, err, want, wantErr)
		}
		// A schedule of the wrong length errors in both.
		bad := make(sched.Schedule, n+1)
		for i := range bad {
			bad[i] = 1
		}
		got, err := plain(bad)
		want, wantErr := refTimingScore(pt.Shared, weights, bad)
		sameOutcome(t, seen, "periodic wrong length", got, err, want, wantErr)

		// Joint points: the shared subspace, every partition, and invalid
		// partitions (wrong length, a zero entry, over the way budget).
		parts := append([]sched.Ways{nil}, wayPartitions(n, pt.TotalWays())...)
		ones := make(sched.Ways, n)
		for i := range ones {
			ones[i] = 1
		}
		zero := ones.Clone()
		zero[0] = 0
		over := ones.Clone()
		over[0] = pt.TotalWays()
		parts = append(parts, ones[:n-1], append(ones.Clone(), 1), zero, over)
		joint := JointTimingEval(pt, weights)
		for _, w := range parts {
			for _, m := range box {
				j := sched.JointSchedule{M: m, W: w}
				got, err := joint(j)
				want, wantErr := refJointTimingScore(pt, weights, j)
				sameOutcome(t, seen, "joint "+j.String(), got, err, want, wantErr)
			}
		}

		// Core points over every subset, plus malformed subsets.
		subsets := [][]int{nil, {}, {n}, {-1}, {0, 0}}
		if n > 1 {
			subsets = append(subsets, []int{1, 0}, []int{0, n})
		}
		for mask := 1; mask < 1<<n; mask++ {
			var sub []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					sub = append(sub, i)
				}
			}
			subsets = append(subsets, sub)
		}
		core, refCore := MulticoreTimingEval(pt, weights), refMulticoreTimingEval(pt, weights)
		for _, sub := range subsets {
			k := len(sub)
			if k == 0 {
				k = 1
			}
			coreParts := append([]sched.Ways{nil, make(sched.Ways, k+1)}, wayPartitions(k, pt.TotalWays())...)
			for _, w := range coreParts {
				for _, m := range scheduleBox(k, 3) {
					p := search.CorePoint{Apps: sub, Point: sched.JointSchedule{M: m, W: w}}
					got, err := core(p)
					want, wantErr := refCore(p)
					sameOutcome(t, seen, "core "+p.String(), got, err, want, wantErr)
				}
			}
		}
	}
	for _, kind := range []string{"periodic", "sporadic", "joint", "core"} {
		if seen[kind] == 0 {
			t.Errorf("no feasible %s point was compared", kind)
		}
	}
}

// TestRandomAppsMatchesRandomTaskset: the design objective's random apps
// and the timing objective's random taskset are one draw — names, idle
// budgets and weights bit-equal over seeds, sizes and platforms — and the
// design framework pairs every app with a case-study plant.
func TestRandomAppsMatchesRandomTaskset(t *testing.T) {
	pool := apps.CaseStudy()
	for _, plat := range PlatformVariants() {
		for _, n := range []int{2, 3, 5} {
			for seed := int64(0); seed < 4; seed++ {
				scn := Scenario{Seed: seed, NumApps: n, Platform: plat}
				timings, weights, err := RandomTaskset(rand.New(rand.NewSource(seed)), scn)
				if err != nil {
					t.Fatal(err)
				}
				fw, err := designFramework(rand.New(rand.NewSource(seed)), scn.withDefaults())
				if err != nil {
					t.Fatal(err)
				}
				list := fw.Apps
				if len(list) != n || len(timings) != n || len(weights) != n {
					t.Fatalf("sizes: %d apps, %d timings, %d weights, want %d", len(list), len(timings), len(weights), n)
				}
				for i, a := range list {
					if a.Name != timings[i].Name ||
						math.Float64bits(a.MaxIdle) != math.Float64bits(timings[i].MaxIdle) ||
						math.Float64bits(a.Weight) != math.Float64bits(weights[i]) {
						t.Fatalf("seed %d, %d apps, app %d: %s/%v/%v vs %s/%v/%v", seed, n, i,
							a.Name, a.MaxIdle, a.Weight, timings[i].Name, timings[i].MaxIdle, weights[i])
					}
					if !reflect.DeepEqual(a.Plant, pool[i%len(pool)].Plant) {
						t.Fatalf("seed %d, %d apps, app %d: not paired with case-study plant %d", seed, n, i, i%len(pool))
					}
				}
			}
		}
	}
}

// TestRandomDesignScenarioAnalyzesOnce: a random design scenario's
// framework carries the timing table and analysis results of the random
// draw, which are exactly what analyzing its applications gives, on every
// platform variant.
func TestRandomDesignScenarioAnalyzesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("design-objective scenarios are slow for -short")
	}
	var budget ctrl.DesignOptions
	budget.Swarm.Particles, budget.Swarm.Iterations = 4, 5
	for k, plat := range PlatformVariants() {
		res, err := Run(Scenario{
			Seed: int64(40 + k), Platform: plat, Objective: ObjectiveDesign,
			Budget: budget, MaxM: 2, Starts: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fw := res.Framework
		pt, rs, err := apps.Table(fw.Apps, plat)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fw.PartTimings, pt) {
			t.Errorf("platform %d: framework timing table differs from apps.Table", k)
		}
		if !reflect.DeepEqual(fw.WCETResults, rs) {
			t.Errorf("platform %d: framework WCET results differ from apps.Table", k)
		}
	}
}

// keyRecorder is a Backend that stores nothing and records every key the
// run writes: "o/<hash>/..." evaluation records and the "r/<hash>"
// checkpoint.
type keyRecorder struct {
	mu   sync.Mutex
	keys map[string]bool
}

func (k *keyRecorder) Get(string) ([]byte, bool) { return nil, false }

func (k *keyRecorder) Put(key string, _ []byte) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.keys[key] = true
}

// TestScenarioKeysPinned pins the evaluation namespace and the checkpoint
// key of one scenario per timing-table shape — random plain, sporadic,
// partitioned, multi-core, design objective, and a partitioned case study —
// so a refactor of taskset generation or table building cannot move a
// store key without this test noticing. The multi-core checkpoint key was
// re-pinned when placementSchema versioned Cores > 1 records apart; every
// single-core key is as it was before.
func TestScenarioKeysPinned(t *testing.T) {
	var tiny ctrl.DesignOptions
	tiny.Swarm.Particles = 4
	tiny.Swarm.Iterations = 5
	cases := []struct {
		name   string
		scn    Scenario
		ns, rk string
	}{
		{"plain", Scenario{Seed: 11, MaxM: 4},
			"o/4bf07f7c2aef951e8d39853767e69ac5/", "r/2eddcd217572391f58722df3e38b7690"},
		{"sporadic", Scenario{Seed: 12, MaxM: 4,
			Arrival: sched.Arrival{Model: sched.ArrivalSporadic, Jitter: 0.2, Seed: 3}},
			"o/94495674cd6b8b47be7a271394c490c8/", "r/e292ea4ec0f3804f69c4b1d66e8c442b"},
		{"partitioned", Scenario{Seed: 13, MaxM: 3, Platform: fourWayPlatform(), Partitioned: true},
			"o/3b00dd0c162e9b3a767f2275dbd506d9/", "r/3cc6d2206b58ee8cc292012a4d1dc510"},
		{"cores", Scenario{Seed: 14, MaxM: 3, Platform: fourWayPlatform(), Cores: 2},
			"o/799bc9739139062b574a74ebb1557ed8/", "r/b7a71c74b7844efb2fe4cfcf411080ac"},
		{"design", Scenario{Seed: 15, MaxM: 2, Starts: 1, Objective: ObjectiveDesign, Budget: tiny},
			"o/cb6b0922182dad3dcdd2081f79a88715/", "r/bdaca3dab432745a57a8185dd35e2f39"},
		{"casestudy", Scenario{Seed: 16, MaxM: 3, Apps: apps.CaseStudy(), Platform: fourWayPlatform(), Partitioned: true},
			"o/dfb36be1e02fed1b933e7c938427c017/", "r/21d3ca5788daff2892b45c2d1e9354e7"},
	}
	for _, c := range cases {
		rec := &keyRecorder{keys: map[string]bool{}}
		if _, err := RunWith(c.scn, RunConfig{Store: rec}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var ns, rk []string
		seen := map[string]bool{}
		for k := range rec.keys {
			switch {
			case strings.HasPrefix(k, "r/"):
				rk = append(rk, k)
			case strings.HasPrefix(k, "o/") && len(k) > 35:
				if p := k[:35]; !seen[p] {
					seen[p] = true
					ns = append(ns, p)
				}
			}
		}
		sort.Strings(ns)
		if len(ns) != 1 || len(rk) != 1 {
			t.Fatalf("%s: namespaces %v, checkpoint keys %v", c.name, ns, rk)
		}
		if ns[0] != c.ns || rk[0] != c.rk {
			t.Errorf("%s: keys moved: namespace %s (pinned %s), checkpoint %s (pinned %s)", c.name, ns[0], c.ns, rk[0], c.rk)
		}
	}
}

// wayPartitions lists every way partition of totalWays over n applications
// (w_i >= 1, sum <= totalWays); there is none when totalWays < n.
func wayPartitions(n, totalWays int) []sched.Ways {
	var out []sched.Ways
	cur := make(sched.Ways, n)
	var rec func(i, used int)
	rec = func(i, used int) {
		if i == n {
			out = append(out, cur.Clone())
			return
		}
		for w := 1; used+w+(n-1-i) <= totalWays; w++ {
			cur[i] = w
			rec(i+1, used+w)
		}
	}
	if n >= 1 && totalWays >= n {
		rec(0, 0)
	}
	return out
}
