// Arrival models: the paper's schedules assume strictly periodic bursts
// (every application's burst k starts exactly k schedule periods after its
// burst 0). The sporadic model relaxes that with seeded bounded release
// jitter: burst k of application i is *released* at
//
//	r_i(k) = k*T + phase_i + u_{k,i} * Jitter * T
//
// where T is the nominal schedule period, phase_i the application's burst
// offset within it, and u_{k,i} uniform in [0, 1) drawn from a fixed seed —
// releases never arrive early, only up to Jitter*T late. Released bursts
// are served FCFS and non-preemptively, which replaces the closed-form
// burst-gap timing when jitter is nonzero. With zero jitter the FCFS walk
// reproduces the closed-form Timeline up to floating-point accumulation
// (the engine normalizes that case back to the periodic path, keeping it
// bit-exact).
//
// The u_{k,i} depend on the seed alone, so SporadicModel draws them once
// per taskset, cycle-outer/application-inner. Scoring a schedule then only
// fills a reused release buffer from the schedule's period and phases,
// sorts it by (release, application, cycle) — a strict total order, so the
// service order is unique — and streams the FCFS walk straight into the
// per-application ArrivalStats accumulators, with no event list and no
// allocation.
package sched

import (
	"fmt"
	"math/rand"
	"sync"
)

// ArrivalModel selects how bursts of a schedule are released over time.
type ArrivalModel int

const (
	// ArrivalPeriodic is the paper's model: burst starts are determined by
	// the schedule alone.
	ArrivalPeriodic ArrivalModel = iota
	// ArrivalSporadic adds seeded bounded release jitter per burst.
	ArrivalSporadic
)

// String names the model for signatures and error messages.
func (m ArrivalModel) String() string {
	switch m {
	case ArrivalPeriodic:
		return "periodic"
	case ArrivalSporadic:
		return "sporadic"
	}
	return fmt.Sprintf("ArrivalModel(%d)", int(m))
}

// DefaultArrivalCycles is the number of schedule periods a sporadic
// timeline simulates when the caller leaves Cycles unset.
const DefaultArrivalCycles = 64

// Arrival configures the burst release model of a scenario. The zero value
// is the periodic model.
type Arrival struct {
	Model  ArrivalModel `json:"model"`
	Jitter float64      `json:"jitter"` // max late release, as a fraction of the schedule period, in [0, 1)
	Seed   int64        `json:"seed"`   // seed of the jitter draws
	Cycles int          `json:"cycles"` // schedule periods to simulate; 0 means DefaultArrivalCycles
}

// Sporadic reports whether the arrival model actually deviates from the
// periodic one: sporadic with zero jitter is periodic.
func (a Arrival) Sporadic() bool { return a.Model == ArrivalSporadic && a.Jitter > 0 }

// WithDefaults resolves unset fields.
func (a Arrival) WithDefaults() Arrival {
	if a.Cycles == 0 {
		a.Cycles = DefaultArrivalCycles
	}
	return a
}

// Validate checks the arrival configuration.
func (a Arrival) Validate() error {
	switch {
	case a.Model != ArrivalPeriodic && a.Model != ArrivalSporadic:
		return fmt.Errorf("sched: unknown arrival model %d", int(a.Model))
	case a.Jitter < 0 || a.Jitter >= 1:
		return fmt.Errorf("sched: arrival jitter %g outside [0, 1)", a.Jitter)
	case a.Model == ArrivalPeriodic && a.Jitter != 0:
		return fmt.Errorf("sched: periodic arrivals cannot carry jitter %g", a.Jitter)
	case a.Cycles < 0 || a.Cycles == 1:
		return fmt.Errorf("sched: arrival cycles %d must be 0 (default) or >= 2", a.Cycles)
	}
	return nil
}

// ArrivalStats summarizes the sampling behaviour one application actually
// experienced in a sporadic timeline, over the starts of its individual
// tasks (tasks inside a burst run back-to-back, first cold, rest warm):
// the mean and maximum difference between consecutive task starts — the
// empirical counterparts of DerivedHyperPeriod/m and DerivedMaxPeriod.
type ArrivalStats struct {
	Tasks      int     // task starts observed
	MeanPeriod float64 // mean consecutive-start difference
	MaxPeriod  float64 // max consecutive-start difference
}

// SporadicModel is a sporadic arrival model compiled against a fixed
// taskset: the jitter draws are made once, and Stats scores any schedule
// of the taskset against them. It is safe for concurrent use.
type SporadicModel struct {
	apps   []AppTiming
	jitter float64
	cycles int
	// draws[k*len(apps)+i] is u_{k,i}, in the seed's draw order.
	draws []float64

	scratch sync.Pool // *sporadicScratch
}

// release is one pending burst release of a sporadic timeline.
type release struct {
	at    float64
	app   int
	cycle int
}

// before is the service order of releases: earliest release first, ties
// broken by application then cycle. No two releases share (app, cycle),
// so the order is strict and total.
func (r release) before(o release) bool {
	switch {
	case r.at != o.at:
		return r.at < o.at
	case r.app != o.app:
		return r.app < o.app
	}
	return r.cycle < o.cycle
}

// arrivalAcc accumulates one application's consecutive task-start
// differences during the FCFS walk.
type arrivalAcc struct {
	last  float64
	seen  bool
	count int
	sum   float64
	max   float64
}

// sporadicScratch is the per-call working set of SporadicModel.Stats.
type sporadicScratch struct {
	phase, burst []float64
	releases     []release
	accs         []arrivalAcc
}

// NewSporadicModel validates the taskset and the arrival model and draws
// the model's release jitter: arr.Cycles (default DefaultArrivalCycles)
// schedule periods of one uniform draw per application, cycle-outer, from
// rand.NewSource(arr.Seed).
func NewSporadicModel(apps []AppTiming, arr Arrival) (*SporadicModel, error) {
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	arr = arr.WithDefaults()
	if err := arr.Validate(); err != nil {
		return nil, err
	}
	n := len(apps)
	m := &SporadicModel{
		apps:   append([]AppTiming(nil), apps...),
		jitter: arr.Jitter,
		cycles: arr.Cycles,
		draws:  make([]float64, n*arr.Cycles),
	}
	rng := rand.New(rand.NewSource(arr.Seed))
	for i := range m.draws {
		m.draws[i] = rng.Float64()
	}
	m.scratch.New = func() any {
		return &sporadicScratch{
			phase:    make([]float64, n),
			burst:    make([]float64, n),
			releases: make([]release, n*arr.Cycles),
			accs:     make([]arrivalAcc, n),
		}
	}
	return m, nil
}

// Stats simulates the model's schedule periods of jittered burst releases
// of schedule s, served FCFS and non-preemptively, and appends each
// application's ArrivalStats to dst in application order. Every burst
// conservatively starts with the cold-cache WCET (under jitter, other
// applications' bursts can interleave arbitrarily between two bursts of
// one application, so no cross-burst cache reuse is assumed). The same
// (model, s) always yields the same stats, and a call that needs no more
// capacity than dst has allocates nothing.
func (m *SporadicModel) Stats(dst []ArrivalStats, s Schedule) ([]ArrivalStats, error) {
	n := len(m.apps)
	if !s.Valid(n) {
		return dst, fmt.Errorf("sched: schedule %v invalid for %d applications", s, n)
	}
	sc := m.scratch.Get().(*sporadicScratch)
	defer m.scratch.Put(sc)

	period := PeriodLength(m.apps, s)
	phase := 0.0
	for i, a := range m.apps {
		sc.burst[i] = BurstLength(a, s[i])
		sc.phase[i] = phase
		phase += sc.burst[i]
	}

	// Releases are computed from k*period, not accumulated, so jitter never
	// drifts the nominal grid. The buffer is filled in draw order, which is
	// nominal order, and a release is at most one period late: it can only
	// be out of order with releases of the neighbouring cycles, so the
	// insertion sort does O(apps) work per release.
	rel := sc.releases
	for k := 0; k < m.cycles; k++ {
		for i := 0; i < n; i++ {
			u := m.draws[k*n+i]
			r := release{at: float64(k)*period + sc.phase[i] + u*m.jitter*period, app: i, cycle: k}
			j := k*n + i
			for ; j > 0 && r.before(rel[j-1]); j-- {
				rel[j] = rel[j-1]
			}
			rel[j] = r
		}
	}

	clear(sc.accs)
	t := 0.0
	for _, r := range rel {
		if r.at > t {
			t = r.at
		}
		start := t
		t += sc.burst[r.app]
		app := m.apps[r.app]
		a := &sc.accs[r.app]
		for j := 0; j < s[r.app]; j++ {
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
			w := app.WarmWCET
			if j == 0 {
				w = app.ColdWCET
			}
			start += w
		}
	}
	for _, a := range sc.accs {
		st := ArrivalStats{Tasks: a.count + 1, MaxPeriod: a.max}
		if a.count > 0 {
			st.MeanPeriod = a.sum / float64(a.count)
		} else {
			st.Tasks = 0
		}
		dst = append(dst, st)
	}
	return dst, nil
}
