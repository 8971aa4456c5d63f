package sched

import (
	"testing"
)

func jointTestTimings() PartitionTimings {
	// Two apps on a 4-way cache. Shared: cold 10, warm 4 / cold 8, warm 3.
	// Partitioned steady state improves with ways.
	mk := func(name string, cold, warm, idle float64) AppTiming {
		return AppTiming{Name: name, ColdWCET: cold, WarmWCET: warm, MaxIdle: idle}
	}
	flat := func(name string, w, idle float64) AppTiming { return mk(name, w, w, idle) }
	return PartitionTimings{
		Shared: []AppTiming{mk("A", 10e-6, 4e-6, 100e-6), mk("B", 8e-6, 3e-6, 100e-6)},
		ByWays: [][]AppTiming{
			{flat("A", 9e-6, 100e-6), flat("B", 7e-6, 100e-6)},
			{flat("A", 5e-6, 100e-6), flat("B", 4e-6, 100e-6)},
			{flat("A", 4e-6, 100e-6), flat("B", 3e-6, 100e-6)},
			{flat("A", 4e-6, 100e-6), flat("B", 3e-6, 100e-6)},
		},
	}
}

func TestWaysValidAndHelpers(t *testing.T) {
	if !(Ways{}).Valid(3, 1) {
		t.Error("empty ways (shared) must be valid for any app count")
	}
	cases := []struct {
		w     Ways
		n, tw int
		want  bool
	}{
		{Ways{2, 1}, 2, 4, true},
		{Ways{2, 2}, 2, 4, true},
		{Ways{3, 2}, 2, 4, false}, // over budget
		{Ways{2, 0}, 2, 4, false}, // zero ways
		{Ways{2}, 2, 4, false},    // wrong length
	}
	for _, c := range cases {
		if got := c.w.Valid(c.n, c.tw); got != c.want {
			t.Errorf("%v.Valid(%d, %d) = %v, want %v", c.w, c.n, c.tw, got, c.want)
		}
	}
	if s := (Ways{2, 1}).Sum(); s != 3 {
		t.Errorf("Sum = %d", s)
	}
	if ew := EvenWays(3, 8); !ew.Equal(Ways{2, 2, 2}) {
		t.Errorf("EvenWays(3, 8) = %v", ew)
	}
	if ew := EvenWays(3, 2); ew != nil {
		t.Errorf("EvenWays(3, 2) = %v, want nil", ew)
	}
}

func TestJointScheduleKeyAndString(t *testing.T) {
	m := Schedule{3, 2}
	shared := SharedPoint(m)
	if !shared.Shared() || shared.Key() != m.Key() || shared.String() != m.String() {
		t.Errorf("shared point: key %q string %q", shared.Key(), shared.String())
	}
	part := JointSchedule{M: m, W: Ways{2, 1}}
	if part.Shared() {
		t.Error("partitioned point reports shared")
	}
	if part.Key() == shared.Key() {
		t.Error("partitioned key collides with shared key")
	}
	if want := "(3, 2)x[2 1]"; part.String() != want {
		t.Errorf("String = %q, want %q", part.String(), want)
	}
	clone := part.Clone()
	clone.W[0] = 1
	clone.M[0] = 1
	if part.W[0] != 2 || part.M[0] != 3 {
		t.Error("Clone shares backing arrays")
	}
	if !part.Equal(JointSchedule{M: Schedule{3, 2}, W: Ways{2, 1}}) || part.Equal(shared) {
		t.Error("Equal misbehaves")
	}
}

func TestEnumeratePartitions(t *testing.T) {
	if got := enumeratePartitions(3, 2); got != nil {
		t.Errorf("n=3, ways=2: %v, want none", got)
	}
	got := enumeratePartitions(2, 3)
	want := []Ways{{1, 1}, {1, 2}, {2, 1}}
	if len(got) != len(want) {
		t.Fatalf("partitions = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("partition %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Count check: n=3, ways=8 has sum_{s=3..8} C(s-1,2) = 56 partitions.
	if got := enumeratePartitions(3, 8); len(got) != 56 {
		t.Errorf("n=3, ways=8: %d partitions, want 56", len(got))
	}
}

func TestPartitionTimingsLookupAndFeasible(t *testing.T) {
	pt := jointTestTimings()
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	if pt.Apps() != 2 || pt.TotalWays() != 4 {
		t.Fatalf("shape: %d apps, %d ways", pt.Apps(), pt.TotalWays())
	}

	shared, err := pt.Timings(SharedPoint(Schedule{1, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if &shared[0] != &pt.Shared[0] {
		t.Error("shared lookup must alias the shared taskset")
	}

	part, err := pt.Timings(JointSchedule{M: Schedule{1, 1}, W: Ways{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if part[0].ColdWCET != 4e-6 || part[1].ColdWCET != 7e-6 {
		t.Errorf("per-way lookup = %+v", part)
	}
	if part[0].ColdWCET != part[0].WarmWCET {
		t.Error("partitioned timing must be steady state (cold == warm)")
	}

	if _, err := pt.Timings(JointSchedule{M: Schedule{1, 1}, W: Ways{4, 1}}); err == nil {
		t.Error("over-budget lookup accepted")
	}

	if ok, _ := pt.Feasible(SharedPoint(Schedule{1, 1})); !ok {
		t.Error("round robin infeasible")
	}
	if ok, _ := pt.Feasible(JointSchedule{M: Schedule{1, 1}, W: Ways{4, 1}}); ok {
		t.Error("over-budget point feasible")
	}
	// Idle constraint still binds: a giant burst blows the 100us budget.
	if ok, _ := pt.Feasible(JointSchedule{M: Schedule{40, 1}, W: Ways{2, 2}}); ok {
		t.Error("idle-infeasible point accepted")
	}
}

func TestEnumerateJointFeasible(t *testing.T) {
	pt := jointTestTimings()
	maxM := 3
	list, err := enumerateJointFeasible(pt, maxM)
	if err != nil {
		t.Fatal(err)
	}
	sharedOnly, err := EnumerateFeasible(pt.Shared, maxM)
	if err != nil {
		t.Fatal(err)
	}
	// Prefix: the shared subspace in EnumerateFeasible order.
	if len(list) < len(sharedOnly) {
		t.Fatalf("joint box %d < shared box %d", len(list), len(sharedOnly))
	}
	for i, m := range sharedOnly {
		if !list[i].Shared() || !list[i].M.Equal(m) {
			t.Fatalf("joint[%d] = %v, want shared %v", i, list[i], m)
		}
	}
	// Remainder: partitioned points only, all feasible, no duplicate keys.
	seen := map[string]bool{}
	for _, j := range list {
		if seen[j.Key()] {
			t.Fatalf("duplicate joint point %v", j)
		}
		seen[j.Key()] = true
		ok, err := pt.Feasible(j)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("enumerated infeasible point %v", j)
		}
	}
	for _, j := range list[len(sharedOnly):] {
		if j.Shared() {
			t.Errorf("shared point %v after the shared prefix", j)
		}
	}
}

// enumeratePartitions lists every way partition (w1..wn) with w_i >= 1 and
// sum <= totalWays, in lexicographic order; there is none when
// totalWays < n.
func enumeratePartitions(n, totalWays int) []Ways {
	var out []Ways
	cur := make(Ways, n)
	var rec func(i, used int)
	rec = func(i, used int) {
		if i == n {
			out = append(out, cur.Clone())
			return
		}
		// Leave at least one way for each remaining application.
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

// enumerateJointFeasible lists the full joint box: the shared subspace,
// then every partition's idle-feasible schedules.
func enumerateJointFeasible(pt PartitionTimings, maxM int) ([]JointSchedule, error) {
	var out []JointSchedule
	for _, w := range append([]Ways{nil}, enumeratePartitions(pt.Apps(), pt.TotalWays())...) {
		timings, err := pt.Timings(JointSchedule{W: w})
		if err != nil {
			return nil, err
		}
		box, err := EnumerateFeasible(timings, maxM)
		if err != nil {
			return nil, err
		}
		for _, m := range box {
			out = append(out, JointSchedule{M: m, W: w})
		}
	}
	return out, nil
}
