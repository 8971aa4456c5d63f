package sched

import (
	"math"
	"testing"
)

// TaskCount returns the total tasks of app per period.
func (iv Interleaved) TaskCount(app int) int {
	n := 0
	for _, b := range iv {
		if b.App == app {
			n += b.Count
		}
	}
	return n
}

func TestInterleavedValid(t *testing.T) {
	ok := Interleaved{{App: 0, Count: 2}, {App: 1, Count: 1}, {App: 0, Count: 1}, {App: 2, Count: 1}}
	if err := ok.Valid(3); err != nil {
		t.Errorf("valid interleaved rejected: %v", err)
	}
	cases := []struct {
		name string
		iv   Interleaved
		n    int
	}{
		{"empty", Interleaved{}, 2},
		{"bad app", Interleaved{{App: 5, Count: 1}}, 2},
		{"bad count", Interleaved{{App: 0, Count: 0}, {App: 1, Count: 1}}, 2},
		{"missing app", Interleaved{{App: 0, Count: 1}}, 2},
		{"adjacent same", Interleaved{{App: 0, Count: 1}, {App: 0, Count: 1}, {App: 1, Count: 1}}, 2},
		{"cyclic adjacent", Interleaved{{App: 0, Count: 1}, {App: 1, Count: 1}, {App: 0, Count: 2}}, 2},
	}
	for _, c := range cases {
		if err := c.iv.Valid(c.n); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestFromSchedule(t *testing.T) {
	iv := FromSchedule(Schedule{2, 3})
	if len(iv) != 2 || iv[0] != (Burst{App: 0, Count: 2}) || iv[1] != (Burst{App: 1, Count: 3}) {
		t.Errorf("FromSchedule: %v", iv)
	}
	if iv.TaskCount(1) != 3 {
		t.Error("TaskCount wrong")
	}
}

func TestDeriveInterleavedMatchesPlainForSingleBursts(t *testing.T) {
	apps := paperApps()
	s := Schedule{2, 2, 2}
	plain, err := Derive(apps, s)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := DeriveInterleaved(apps, FromSchedule(s))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if len(plain[i].Periods) != len(inter[i].Periods) {
			t.Fatalf("app %d: period count mismatch", i)
		}
		for j := range plain[i].Periods {
			if math.Abs(plain[i].Periods[j]-inter[i].Periods[j]) > 1e-12 {
				t.Errorf("app %d h(%d): plain %g inter %g", i, j, plain[i].Periods[j], inter[i].Periods[j])
			}
			if math.Abs(plain[i].Delays[j]-inter[i].Delays[j]) > 1e-15 {
				t.Errorf("app %d tau(%d) mismatch", i, j)
			}
		}
	}
}

func TestDeriveInterleavedSplitBurst(t *testing.T) {
	apps := paperApps()
	// (C1 x1 | C2 x1 | C1 x1 | C3 x1): C1 appears twice, both tasks COLD
	// because other apps run in between.
	iv := Interleaved{{App: 0, Count: 1}, {App: 1, Count: 1}, {App: 0, Count: 1}, {App: 2, Count: 1}}
	der, err := DeriveInterleaved(apps, iv)
	if err != nil {
		t.Fatal(err)
	}
	c1 := der[0]
	if c1.M != 2 {
		t.Fatalf("C1 task count = %d", c1.M)
	}
	for j, w := range c1.WCETs {
		if math.Abs(w-apps[0].ColdWCET) > 1e-15 {
			t.Errorf("C1 task %d WCET %g, want cold %g", j, w, apps[0].ColdWCET)
		}
	}
	// First period: start of 2nd C1 task - start of first = cold(C1)+cold(C2).
	want0 := apps[0].ColdWCET + apps[1].ColdWCET
	if math.Abs(c1.Periods[0]-want0) > 1e-12 {
		t.Errorf("C1 h(1) = %g, want %g", c1.Periods[0], want0)
	}
	// Periods wrap the full hyper-period.
	total := apps[0].ColdWCET*2 + apps[1].ColdWCET + apps[2].ColdWCET
	if math.Abs(c1.HyperPeriod()-total) > 1e-12 {
		t.Errorf("hyper-period %g, want %g", c1.HyperPeriod(), total)
	}
}

func TestDeriveInterleavedWarmWithinBurst(t *testing.T) {
	apps := paperApps()
	iv := Interleaved{{App: 0, Count: 3}, {App: 1, Count: 1}, {App: 2, Count: 1}}
	der, err := DeriveInterleaved(apps, iv)
	if err != nil {
		t.Fatal(err)
	}
	c1 := der[0]
	if math.Abs(c1.WCETs[0]-apps[0].ColdWCET) > 1e-15 ||
		math.Abs(c1.WCETs[1]-apps[0].WarmWCET) > 1e-15 ||
		math.Abs(c1.WCETs[2]-apps[0].WarmWCET) > 1e-15 {
		t.Errorf("burst WCETs: %v", c1.WCETs)
	}
}

func TestIdleFeasibleInterleaved(t *testing.T) {
	apps := paperApps()
	// Splitting C1's burst reduces its longest gap, so a schedule that is
	// idle-infeasible as (1, 10, 10)-style bursts can become feasible
	// interleaved. Just verify the checker runs and respects bounds.
	iv := Interleaved{{App: 0, Count: 1}, {App: 1, Count: 2}, {App: 0, Count: 1}, {App: 2, Count: 2}}
	ok, err := IdleFeasibleInterleaved(apps, iv)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("modest interleaved schedule should be feasible")
	}
	bad := Interleaved{{App: 0, Count: 1}, {App: 1, Count: 30}, {App: 2, Count: 30}}
	ok, err = IdleFeasibleInterleaved(apps, bad)
	if err != nil || ok {
		t.Error("starving schedule should be infeasible")
	}
}

func TestInterleavedString(t *testing.T) {
	iv := Interleaved{{App: 0, Count: 2}, {App: 1, Count: 1}}
	if iv.String() != "(C0 x2 | C1 x1)" {
		t.Errorf("String = %q", iv.String())
	}
}
