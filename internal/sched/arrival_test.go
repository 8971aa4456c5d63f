package sched

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/race"
)

// The heap-driven event timeline below is the reference formulation of
// the sporadic model: it draws the jitter per call, materializes every
// executed burst, and reduces them to ArrivalStats in a second pass. SporadicModel
// streams the same walk; TestSporadicModelMatchesTimeline pins the two bit
// for bit, and the remaining timeline tests check the model's semantics
// (FCFS, release windows, the zero-jitter closed form) on the oracle.

// BurstEvent is one executed burst in a sporadic timeline: application App's
// burst of cycle k, released at Release, started at Start >= Release
// (waiting behind earlier-released bursts), finished at End.
type BurstEvent struct {
	App     int
	Cycle   int
	Release float64
	Start   float64
	End     float64
}

// releaseEvent orders pending burst releases: earliest release first, ties
// broken by application then cycle so the timeline is deterministic.
type releaseEvent struct {
	release float64
	app     int
	cycle   int
}

type releaseHeap []releaseEvent

func (h releaseHeap) Len() int { return len(h) }
func (h releaseHeap) Less(i, j int) bool {
	switch {
	case h[i].release != h[j].release:
		return h[i].release < h[j].release
	case h[i].app != h[j].app:
		return h[i].app < h[j].app
	}
	return h[i].cycle < h[j].cycle
}
func (h releaseHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)   { *h = append(*h, x.(releaseEvent)) }
func (h *releaseHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// SporadicTimeline simulates arr.Cycles schedule periods of jittered burst
// releases served FCFS and non-preemptively, and returns the executed
// bursts in start order. Every burst conservatively starts with the
// cold-cache WCET (under jitter, other applications' bursts can interleave
// arbitrarily between two bursts of one application, so no cross-burst
// cache reuse is assumed). The same (apps, s, arr) always yields the same
// timeline.
func SporadicTimeline(apps []AppTiming, s Schedule, arr Arrival) ([]BurstEvent, error) {
	if !s.Valid(len(apps)) {
		return nil, fmt.Errorf("sched: schedule %v invalid for %d applications", s, len(apps))
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	arr = arr.WithDefaults()
	if err := arr.Validate(); err != nil {
		return nil, err
	}

	period := PeriodLength(apps, s)
	phase := make([]float64, len(apps))
	for i := 1; i < len(apps); i++ {
		phase[i] = phase[i-1] + BurstLength(apps[i-1], s[i-1])
	}

	// Draw every release up front, cycle-outer/application-inner, so the
	// draw order (and hence the whole timeline) is a pure function of the
	// seed. Releases are computed from k*period, not accumulated, so jitter
	// never drifts the nominal grid.
	rng := rand.New(rand.NewSource(arr.Seed))
	pending := make(releaseHeap, 0, len(apps)*arr.Cycles)
	for k := 0; k < arr.Cycles; k++ {
		for i := range apps {
			u := rng.Float64()
			pending = append(pending, releaseEvent{
				release: float64(k)*period + phase[i] + u*arr.Jitter*period,
				app:     i,
				cycle:   k,
			})
		}
	}
	heap.Init(&pending)

	events := make([]BurstEvent, 0, len(pending))
	t := 0.0
	for pending.Len() > 0 {
		ev := heap.Pop(&pending).(releaseEvent)
		if ev.release > t {
			t = ev.release
		}
		start := t
		t += BurstLength(apps[ev.app], s[ev.app])
		events = append(events, BurstEvent{App: ev.app, Cycle: ev.cycle, Release: ev.release, Start: start, End: t})
	}
	return events, nil
}

// SporadicStats reduces a timeline from SporadicTimeline to per-application
// arrival statistics, in application order.
func SporadicStats(apps []AppTiming, s Schedule, events []BurstEvent) []ArrivalStats {
	type acc struct {
		last  float64
		seen  bool
		count int
		sum   float64
		max   float64
	}
	accs := make([]acc, len(apps))
	for _, ev := range events {
		a := &accs[ev.App]
		start := ev.Start
		for j := 0; j < s[ev.App]; j++ {
			if a.seen {
				d := start - a.last
				a.sum += d
				a.count++
				if d > a.max {
					a.max = d
				}
			}
			a.last = start
			a.seen = true
			w := apps[ev.App].WarmWCET
			if j == 0 {
				w = apps[ev.App].ColdWCET
			}
			start += w
		}
	}
	out := make([]ArrivalStats, len(apps))
	for i, a := range accs {
		out[i] = ArrivalStats{Tasks: a.count + 1, MaxPeriod: a.max}
		if a.count > 0 {
			out[i].MeanPeriod = a.sum / float64(a.count)
		} else {
			out[i].Tasks = 0
		}
	}
	return out
}

func arrivalApps() []AppTiming {
	return []AppTiming{
		{Name: "C1", ColdWCET: 300e-6, WarmWCET: 200e-6, MaxIdle: 3e-3},
		{Name: "C2", ColdWCET: 400e-6, WarmWCET: 250e-6, MaxIdle: 4e-3},
		{Name: "C3", ColdWCET: 500e-6, WarmWCET: 300e-6, MaxIdle: 5e-3},
	}
}

func TestArrivalValidate(t *testing.T) {
	good := []Arrival{
		{},
		{Model: ArrivalSporadic},
		{Model: ArrivalSporadic, Jitter: 0.25, Seed: 7, Cycles: 16},
		{Model: ArrivalSporadic, Jitter: 0.999},
	}
	for _, a := range good {
		if err := a.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", a, err)
		}
	}
	bad := []Arrival{
		{Model: ArrivalModel(9)},
		{Model: ArrivalSporadic, Jitter: -0.1},
		{Model: ArrivalSporadic, Jitter: 1.0},
		{Jitter: 0.1}, // periodic with jitter
		{Model: ArrivalSporadic, Jitter: 0.1, Cycles: 1},
		{Model: ArrivalSporadic, Jitter: 0.1, Cycles: -3},
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("%+v accepted", a)
		}
	}
	if (Arrival{Model: ArrivalSporadic}).Sporadic() {
		t.Error("zero-jitter sporadic must count as periodic")
	}
	if !(Arrival{Model: ArrivalSporadic, Jitter: 0.1}).Sporadic() {
		t.Error("jittered sporadic not reported as sporadic")
	}
	if got := (Arrival{}).WithDefaults().Cycles; got != DefaultArrivalCycles {
		t.Errorf("default cycles = %d, want %d", got, DefaultArrivalCycles)
	}
}

// TestSporadicZeroJitterMatchesClosedForm: with zero jitter the heap-driven
// timeline reproduces the closed-form periodic layout — every burst of
// cycle k starts at k*T + phase_i up to floating-point accumulation.
func TestSporadicZeroJitterMatchesClosedForm(t *testing.T) {
	apps := arrivalApps()
	s := Schedule{2, 1, 3}
	arr := Arrival{Model: ArrivalSporadic, Seed: 11, Cycles: 8}
	events, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(apps)*arr.Cycles {
		t.Fatalf("%d events, want %d", len(events), len(apps)*arr.Cycles)
	}
	period := PeriodLength(apps, s)
	slots, err := Timeline(apps, s)
	if err != nil {
		t.Fatal(err)
	}
	// Burst phase of app i = start of its first slot in the closed form.
	phase := make([]float64, len(apps))
	for i := len(slots) - 1; i >= 0; i-- {
		if slots[i].Task == 1 {
			phase[slots[i].App] = slots[i].Start
		}
	}
	tol := 1e-9 * period
	for _, ev := range events {
		want := float64(ev.Cycle)*period + phase[ev.App]
		if math.Abs(ev.Start-want) > tol {
			t.Fatalf("app %d cycle %d starts at %g, closed form %g", ev.App, ev.Cycle, ev.Start, want)
		}
		if math.Abs(ev.End-ev.Start-BurstLength(apps[ev.App], s[ev.App])) > tol {
			t.Fatalf("app %d cycle %d burst length %g, want %g",
				ev.App, ev.Cycle, ev.End-ev.Start, BurstLength(apps[ev.App], s[ev.App]))
		}
	}
}

func TestSporadicTimelineDeterministic(t *testing.T) {
	apps := arrivalApps()
	s := Schedule{1, 2, 1}
	arr := Arrival{Model: ArrivalSporadic, Jitter: 0.3, Seed: 42, Cycles: 32}
	a, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different timelines")
	}
	arr.Seed = 43
	c, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical jittered timelines")
	}
}

// TestSporadicTimelineSane: releases stay within their jitter window,
// bursts never start before their release, starts are non-decreasing
// (FCFS), and the processor never runs two bursts at once.
func TestSporadicTimelineSane(t *testing.T) {
	apps := arrivalApps()
	s := Schedule{2, 3, 1}
	arr := Arrival{Model: ArrivalSporadic, Jitter: 0.4, Seed: 5, Cycles: 64}
	events, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	period := PeriodLength(apps, s)
	phase := []float64{0, BurstLength(apps[0], s[0]), BurstLength(apps[0], s[0]) + BurstLength(apps[1], s[1])}
	prevStart, prevEnd := math.Inf(-1), math.Inf(-1)
	for _, ev := range events {
		nominal := float64(ev.Cycle)*period + phase[ev.App]
		if ev.Release < nominal-1e-12 || ev.Release > nominal+arr.Jitter*period+1e-12 {
			t.Fatalf("app %d cycle %d released at %g outside [%g, %g]",
				ev.App, ev.Cycle, ev.Release, nominal, nominal+arr.Jitter*period)
		}
		if ev.Start < ev.Release {
			t.Fatalf("burst started at %g before release %g", ev.Start, ev.Release)
		}
		if ev.Start < prevStart {
			t.Fatal("starts not in FCFS order")
		}
		if ev.Start < prevEnd-1e-12 {
			t.Fatalf("burst at %g overlaps previous ending %g", ev.Start, prevEnd)
		}
		prevStart, prevEnd = ev.Start, ev.End
	}
}

// TestSporadicStatsZeroJitterMatchDerived: with zero jitter the empirical
// per-app stats reproduce the closed-form derivation — max consecutive-start
// difference equals DerivedMaxPeriod, and the mean approaches
// DerivedHyperPeriod/m as cycles grow.
func TestSporadicStatsZeroJitterMatchDerived(t *testing.T) {
	apps := arrivalApps()
	s := Schedule{2, 1, 3}
	arr := Arrival{Model: ArrivalSporadic, Seed: 3, Cycles: 256}
	events, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	stats := SporadicStats(apps, s, events)
	for i, app := range apps {
		gap := BurstGap(apps, s, i)
		wantMax := DerivedMaxPeriod(app, s[i], gap)
		if math.Abs(stats[i].MaxPeriod-wantMax) > 1e-9*wantMax {
			t.Errorf("app %d: empirical max period %g, derived %g", i, stats[i].MaxPeriod, wantMax)
		}
		wantMean := DerivedHyperPeriod(app, s[i], gap) / float64(s[i])
		if rel := math.Abs(stats[i].MeanPeriod-wantMean) / wantMean; rel > 0.02 {
			t.Errorf("app %d: empirical mean period %g, derived %g (rel %g)", i, stats[i].MeanPeriod, wantMean, rel)
		}
		if stats[i].Tasks != s[i]*arr.Cycles {
			t.Errorf("app %d: %d tasks observed, want %d", i, stats[i].Tasks, s[i]*arr.Cycles)
		}
	}
}

// TestSporadicJitterDegradesPeriods: on this taskset and seed, adding
// release jitter stretches the worst observed sampling period of at least
// one application — the degradation Table VI measures.
func TestSporadicJitterDegradesPeriods(t *testing.T) {
	apps := arrivalApps()
	s := Schedule{2, 1, 3}
	base, err := SporadicTimeline(apps, s, Arrival{Model: ArrivalSporadic, Seed: 7, Cycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	jit, err := SporadicTimeline(apps, s, Arrival{Model: ArrivalSporadic, Jitter: 0.3, Seed: 7, Cycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	bs, js := SporadicStats(apps, s, base), SporadicStats(apps, s, jit)
	worse := false
	for i := range apps {
		if js[i].MaxPeriod > bs[i].MaxPeriod+1e-12 {
			worse = true
		}
	}
	if !worse {
		t.Error("0.3 jitter did not stretch any application's max period")
	}
}

// TestSporadicModelMatchesTimeline: the compiled model's streamed stats
// equal SporadicStats(SporadicTimeline(...)) bit for bit, across taskset
// sizes, jitters up to the top of the valid range, short and long
// horizons, and random tasksets and schedules, with every model reused
// across many schedules.
func TestSporadicModelMatchesTimeline(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for n := 3; n <= 5; n++ {
		for _, jitter := range []float64{0, 0.05, 0.2, 0.6, 0.999} {
			for _, cycles := range []int{2, 64, 200} {
				for trial := 0; trial < 3; trial++ {
					apps := randomTimings(r, n)
					if n == 3 && trial == 0 {
						apps = arrivalApps()
					}
					arr := Arrival{Model: ArrivalSporadic, Jitter: jitter, Seed: r.Int63(), Cycles: cycles}
					m, err := NewSporadicModel(apps, arr)
					if err != nil {
						t.Fatal(err)
					}
					for k := 0; k < 8; k++ {
						s := randomSchedule(r, n, 6)
						events, err := SporadicTimeline(apps, s, arr)
						if err != nil {
							t.Fatal(err)
						}
						want := SporadicStats(apps, s, events)
						got, err := m.Stats(nil, s)
						if err != nil {
							t.Fatal(err)
						}
						if len(got) != len(want) {
							t.Fatalf("%d stats, want %d", len(got), len(want))
						}
						for i := range want {
							g, w := got[i], want[i]
							if g.Tasks != w.Tasks ||
								math.Float64bits(g.MeanPeriod) != math.Float64bits(w.MeanPeriod) ||
								math.Float64bits(g.MaxPeriod) != math.Float64bits(w.MaxPeriod) {
								t.Fatalf("n=%d jitter=%g cycles=%d s=%v app %d: model %+v, timeline %+v",
									n, jitter, cycles, s, i, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestSporadicModelErrors: the model rejects what SporadicTimeline
// rejects — invalid arrival models and timings at construction, schedules
// of the wrong shape per call — and appends after existing entries.
func TestSporadicModelErrors(t *testing.T) {
	apps := arrivalApps()
	for _, arr := range []Arrival{
		{Model: ArrivalSporadic, Jitter: 1},
		{Model: ArrivalSporadic, Jitter: 0.1, Cycles: 1},
		{Model: ArrivalModel(7)},
	} {
		if _, err := NewSporadicModel(apps, arr); err == nil {
			t.Errorf("%+v accepted", arr)
		}
	}
	bad := arrivalApps()
	bad[1].ColdWCET = -1
	if _, err := NewSporadicModel(bad, Arrival{Model: ArrivalSporadic, Jitter: 0.1}); err == nil {
		t.Error("invalid timing accepted")
	}
	m, err := NewSporadicModel(apps, Arrival{Model: ArrivalSporadic, Jitter: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Schedule{{1, 1}, {1, 0, 1}, {1, 1, 1, 1}} {
		if _, err := m.Stats(nil, s); err == nil {
			t.Errorf("schedule %v accepted", s)
		}
	}
	prefix := []ArrivalStats{{Tasks: -1}}
	out, err := m.Stats(prefix, Schedule{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1+len(apps) || out[0].Tasks != -1 {
		t.Fatalf("Stats did not append: %+v", out)
	}
}

// TestSporadicStatsAllocs pins that a steady-state Stats call allocates
// nothing: the jitter draws are compiled once and the per-call scratch is
// pooled.
func TestSporadicStatsAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector drops pooled scratch and allocates")
	}
	m, err := NewSporadicModel(arrivalApps(), Arrival{Model: ArrivalSporadic, Jitter: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]ArrivalStats, 0, 3)
	s := Schedule{2, 3, 1}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Stats(dst[:0], s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SporadicModel.Stats allocates %g per call", allocs)
	}
}

// TestSporadicModelConcurrent: concurrent Stats calls on one model (as the
// search's parallel reduction makes them) agree with serial ones.
func TestSporadicModelConcurrent(t *testing.T) {
	apps := arrivalApps()
	m, err := NewSporadicModel(apps, Arrival{Model: ArrivalSporadic, Jitter: 0.5, Seed: 4, Cycles: 32})
	if err != nil {
		t.Fatal(err)
	}
	var schedules []Schedule
	for a := 1; a <= 4; a++ {
		for b := 1; b <= 4; b++ {
			for c := 1; c <= 4; c++ {
				schedules = append(schedules, Schedule{a, b, c})
			}
		}
	}
	want := make([][]ArrivalStats, len(schedules))
	for i, s := range schedules {
		if want[i], err = m.Stats(nil, s); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for rep := 0; rep < 20; rep++ {
				for i := range schedules {
					i := (i + g*7) % len(schedules)
					got, err := m.Stats(nil, schedules[i])
					if err == nil && !reflect.DeepEqual(got, want[i]) {
						err = fmt.Errorf("schedule %v: concurrent %+v, serial %+v", schedules[i], got, want[i])
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSporadicModelReleaseOrder pins the service order the heap's Less
// defines — release, then application, then cycle — on the ties random
// jitter never produces.
func TestSporadicModelReleaseOrder(t *testing.T) {
	ordered := []release{
		{at: 1, app: 0, cycle: 5},
		{at: 2, app: 0, cycle: 3},
		{at: 2, app: 1, cycle: 0},
		{at: 2, app: 1, cycle: 1},
		{at: 3, app: 0, cycle: 0},
	}
	for i, a := range ordered {
		for j, b := range ordered {
			if got, want := a.before(b), i < j; got != want {
				t.Errorf("%+v before %+v = %v, want %v", a, b, got, want)
			}
		}
	}
}
