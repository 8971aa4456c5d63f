package sched

import (
	"fmt"
	"math"
	"testing"
)

// paperApps returns the Table I timings in seconds.
func paperApps() []AppTiming {
	return []AppTiming{
		{Name: "C1", ColdWCET: 907.55e-6, WarmWCET: 452.15e-6, MaxIdle: 3.4e-3},
		{Name: "C2", ColdWCET: 645.25e-6, WarmWCET: 175.00e-6, MaxIdle: 3.9e-3},
		{Name: "C3", ColdWCET: 749.15e-6, WarmWCET: 234.35e-6, MaxIdle: 3.5e-3},
	}
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestValidateAppTiming(t *testing.T) {
	if err := (AppTiming{Name: "x", ColdWCET: 1, WarmWCET: 0.5}).Validate(); err != nil {
		t.Errorf("valid timing rejected: %v", err)
	}
	bad := []AppTiming{
		{Name: "a", ColdWCET: 0, WarmWCET: 1},
		{Name: "b", ColdWCET: 1, WarmWCET: 0},
		{Name: "c", ColdWCET: 1, WarmWCET: 2},
	}
	for _, a := range bad {
		if a.Validate() == nil {
			t.Errorf("%q should be invalid", a.Name)
		}
	}
}

func TestScheduleBasics(t *testing.T) {
	s := Schedule{3, 2, 3}
	if s.String() != "(3, 2, 3)" {
		t.Errorf("String = %q", s.String())
	}
	if !s.Equal(s.Clone()) {
		t.Error("clone not equal")
	}
	c := s.Clone()
	c[0] = 9
	if s[0] != 3 {
		t.Error("clone aliases original")
	}
	if !RoundRobin(3).Equal(Schedule{1, 1, 1}) {
		t.Error("round robin wrong")
	}
	zeroBurst := Schedule{0, 1}
	if s.Valid(2) || !s.Valid(3) || zeroBurst.Valid(2) {
		t.Error("Valid checks wrong")
	}
}

func TestBurstAndPeriodLength(t *testing.T) {
	apps := paperApps()
	// Burst of C1 with m=3: 907.55 + 2*452.15 = 1811.85 us.
	if !approx(BurstLength(apps[0], 3), 1811.85e-6, 1e-12) {
		t.Errorf("burst C1 m=3 = %g", BurstLength(apps[0], 3))
	}
	// Schedule period of (3,2,3):
	// C1: 1811.85, C2: 645.25+175=820.25, C3: 749.15+2*234.35=1217.85
	want := (1811.85 + 820.25 + 1217.85) * 1e-6
	if !approx(PeriodLength(apps, Schedule{3, 2, 3}), want, 1e-12) {
		t.Errorf("period = %g, want %g", PeriodLength(apps, Schedule{3, 2, 3}), want)
	}
}

func TestDeriveRoundRobin(t *testing.T) {
	apps := paperApps()
	der, err := Derive(apps, RoundRobin(3))
	if err != nil {
		t.Fatal(err)
	}
	// Under (1,1,1) every app has one period equal to the total of all
	// cold WCETs, and delay equal to its own cold WCET.
	total := (907.55 + 645.25 + 749.15) * 1e-6
	for i, d := range der {
		if len(d.Periods) != 1 {
			t.Fatalf("app %d: %d periods", i, len(d.Periods))
		}
		if !approx(d.Periods[0], total, 1e-12) {
			t.Errorf("app %d period = %g, want %g", i, d.Periods[0], total)
		}
		if !approx(d.Delays[0], apps[i].ColdWCET, 1e-15) {
			t.Errorf("app %d delay = %g", i, d.Delays[0])
		}
		if !approx(d.Gap, total-apps[i].ColdWCET, 1e-12) {
			t.Errorf("app %d gap = %g", i, d.Gap)
		}
	}
}

func TestDerivePaperExample(t *testing.T) {
	// The (2,2,2) example of Section II-C: h1(1) = Ewc1(1),
	// h1(2) = Ewc1(2) + Delta with Delta the other apps' bursts.
	apps := paperApps()
	der, err := Derive(apps, Schedule{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	c1 := der[0]
	if !approx(c1.Periods[0], 907.55e-6, 1e-15) {
		t.Errorf("h1(1) = %g", c1.Periods[0])
	}
	delta := (645.25 + 175 + 749.15 + 234.35) * 1e-6
	if !approx(c1.Gap, delta, 1e-12) {
		t.Errorf("Delta = %g, want %g", c1.Gap, delta)
	}
	if !approx(c1.Periods[1], 452.15e-6+delta, 1e-12) {
		t.Errorf("h1(2) = %g", c1.Periods[1])
	}
	// Delays equal the task WCETs (Eq. 8).
	if !approx(c1.Delays[0], 907.55e-6, 1e-15) || !approx(c1.Delays[1], 452.15e-6, 1e-15) {
		t.Errorf("delays = %v", c1.Delays)
	}
	// Hyper-period equals the schedule period for every app.
	p := PeriodLength(apps, Schedule{2, 2, 2})
	for i, d := range der {
		if !approx(d.HyperPeriod(), p, 1e-12) {
			t.Errorf("app %d hyper-period %g != schedule period %g", i, d.HyperPeriod(), p)
		}
	}
}

func TestDeriveRejects(t *testing.T) {
	apps := paperApps()
	if _, err := Derive(apps, Schedule{1, 2}); err == nil {
		t.Error("wrong-length schedule accepted")
	}
	if _, err := Derive(apps, Schedule{0, 1, 1}); err == nil {
		t.Error("zero burst accepted")
	}
	bad := paperApps()
	bad[0].WarmWCET = -1
	if _, err := Derive(bad, RoundRobin(3)); err == nil {
		t.Error("invalid timing accepted")
	}
}

func TestIdleFeasible(t *testing.T) {
	apps := paperApps()
	for _, s := range []Schedule{{1, 1, 1}, {3, 2, 3}, {2, 2, 2}} {
		ok, err := IdleFeasible(apps, s)
		if err != nil || !ok {
			t.Errorf("%v should be feasible: ok=%v err=%v", s, ok, err)
		}
	}
	// Huge burst of C2+C3 starves C1 beyond its 3.4 ms idle bound.
	ok, err := IdleFeasible(apps, Schedule{1, 10, 10})
	if err != nil || ok {
		t.Errorf("(1,10,10) should violate C1's idle bound")
	}
}

func TestEnumerateFeasible(t *testing.T) {
	apps := paperApps()
	list, err := EnumerateFeasible(apps, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 {
		t.Fatal("no feasible schedules")
	}
	// (1,1,1) and (3,2,3) must be in the set.
	found111, found323 := false, false
	for _, s := range list {
		if s.Equal(Schedule{1, 1, 1}) {
			found111 = true
		}
		if s.Equal(Schedule{3, 2, 3}) {
			found323 = true
		}
		ok, _ := IdleFeasible(apps, s)
		if !ok {
			t.Errorf("enumerated infeasible schedule %v", s)
		}
	}
	if !found111 || !found323 {
		t.Errorf("expected schedules missing: 111=%v 323=%v (total %d)", found111, found323, len(list))
	}
	t.Logf("feasible schedules with paper timings: %d", len(list))
}

// MaxFeasibleM returns, for each application, the largest burst length m_i
// that is idle-feasible when every other application runs a single task.
// This is a per-dimension upper bound used to size the search box.
func MaxFeasibleM(apps []AppTiming, maxM int) ([]int, error) {
	n := len(apps)
	bounds := make([]int, n)
	for i := range apps {
		bounds[i] = 0
		for m := 1; m <= maxM; m++ {
			s := RoundRobin(n)
			s[i] = m
			ok, err := IdleFeasible(apps, s)
			if err != nil {
				return nil, err
			}
			if ok {
				bounds[i] = m
			} else {
				break
			}
		}
		if bounds[i] == 0 {
			return nil, fmt.Errorf("sched: app %q infeasible even at m=1", apps[i].Name)
		}
	}
	return bounds, nil
}

func TestMaxFeasibleM(t *testing.T) {
	apps := paperApps()
	bounds, err := MaxFeasibleM(apps, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bounds {
		if b < 1 {
			t.Errorf("app %d bound %d", i, b)
		}
		// Verify the bound is tight: m=bound feasible, m=bound+1 not (when
		// the constraint binds below the cap).
		s := RoundRobin(3)
		s[i] = b
		if ok, _ := IdleFeasible(apps, s); !ok {
			t.Errorf("app %d: m=%d reported feasible but is not", i, b)
		}
	}
}

func TestTimeline(t *testing.T) {
	apps := paperApps()
	slots, err := Timeline(apps, Schedule{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 4 {
		t.Fatalf("slots: %d", len(slots))
	}
	if !slots[0].Cold || slots[1].Cold {
		t.Error("first of burst must be cold, second warm")
	}
	if !approx(slots[1].Start, 907.55e-6, 1e-15) {
		t.Errorf("second slot start %g", slots[1].Start)
	}
	if !approx(slots[3].End, PeriodLength(apps, Schedule{2, 1, 1}), 1e-12) {
		t.Error("last slot must end at the period boundary")
	}
	txt, err := FormatTimeline(apps, Schedule{2, 1, 1})
	if err != nil || len(txt) == 0 {
		t.Error("FormatTimeline failed")
	}
}

// TotalUtilization is the fraction of the schedule period spent executing
// (always 1 for the back-to-back schedules of the paper, provided for
// interleaved variants and sanity checks).
func TotalUtilization(apps []AppTiming, s Schedule) float64 {
	p := PeriodLength(apps, s)
	if p <= 0 {
		return math.NaN()
	}
	busy := 0.0
	for i, app := range apps {
		busy += BurstLength(app, s[i])
	}
	return busy / p
}

func TestTotalUtilization(t *testing.T) {
	apps := paperApps()
	if u := TotalUtilization(apps, Schedule{2, 2, 2}); !approx(u, 1, 1e-12) {
		t.Errorf("utilization = %g, want 1", u)
	}
}

func TestParseSchedule(t *testing.T) {
	for _, c := range []struct {
		text string
		n    int
		want Schedule
	}{
		{"3,2,3", 3, Schedule{3, 2, 3}},
		{" 3, 2 ,3 ", 3, Schedule{3, 2, 3}},
		{"1,255", 0, Schedule{1, 255}},
		{"7", 1, Schedule{7}},
	} {
		got, err := ParseSchedule(c.text, c.n)
		if err != nil || !got.Equal(c.want) {
			t.Errorf("ParseSchedule(%q, %d) = %v, %v; want %v", c.text, c.n, got, err, c.want)
		}
	}
	for _, c := range []struct {
		text string
		n    int
	}{
		{"", 0}, {"1,,1", 0}, {"0,1,1", 3}, {"-1", 0}, {"256,1,1", 3},
		{"1,x,1", 3}, {"1,1", 3}, {"1,1,1,1", 3}, {"3 2 3", 3},
	} {
		if got, err := ParseSchedule(c.text, c.n); err == nil {
			t.Errorf("ParseSchedule(%q, %d) = %v, want an error", c.text, c.n, got)
		}
	}
}
