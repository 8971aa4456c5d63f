// Package sched implements the periodic task schedules of the paper and the
// derivation of control-timing parameters from them.
//
// A schedule (m1, m2, ..., mn) runs mi back-to-back tasks of application Ci
// per schedule period (Section II). Consecutive tasks of one application
// reuse the instruction cache, so the first task of a burst has the
// cold-cache WCET Ewc(1) and every later task the reduced WCET
// Ewc(j) = Ewc(1) - Egu (Eq. 5). The sampling periods h_i(j) and
// sensing-to-actuation delays tau_i(j) follow Eq. (6)-(8): tasks inside a
// burst sample back-to-back, and the last task of a burst additionally
// waits for all other applications' bursts (the gap Delta_i).
package sched

import (
	"fmt"
	"strconv"
	"strings"
)

// AppTiming carries the per-application platform analysis results that
// timing derivation needs. Times are in seconds.
type AppTiming struct {
	Name     string
	ColdWCET float64 // Ewc(1): WCET without cache reuse
	WarmWCET float64 // Ewc(j>=2): WCET with guaranteed cache reuse
	MaxIdle  float64 // t_idle: maximum allowed sampling period (Eq. 4); <=0 means unconstrained
}

// Validate checks that the timing numbers are physically meaningful.
func (a AppTiming) Validate() error {
	switch {
	case a.ColdWCET <= 0:
		return fmt.Errorf("sched: app %q: cold WCET %g must be positive", a.Name, a.ColdWCET)
	case a.WarmWCET <= 0 || a.WarmWCET > a.ColdWCET:
		return fmt.Errorf("sched: app %q: warm WCET %g must be in (0, cold=%g]", a.Name, a.WarmWCET, a.ColdWCET)
	}
	return nil
}

// Schedule is a periodic schedule (m1, ..., mn): entry i is the number of
// consecutively executed tasks of application i per schedule period.
type Schedule []int

// RoundRobin returns the conventional cache-oblivious schedule (1, 1, ..., 1).
func RoundRobin(n int) Schedule {
	s := make(Schedule, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// Clone returns a copy of s.
func (s Schedule) Clone() Schedule { return append(Schedule(nil), s...) }

// Equal reports element-wise equality.
func (s Schedule) Equal(o Schedule) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Valid reports whether every burst length is at least one and the length
// matches the application count.
func (s Schedule) Valid(n int) bool {
	if len(s) != n {
		return false
	}
	for _, m := range s {
		if m < 1 {
			return false
		}
	}
	return true
}

// ParseSchedule parses the comma-separated form "3,2,3" (spaces around
// entries tolerated) that every command and the HTTP service accept for
// schedules and way lists. Each entry must lie in [1, MaxPackedCoord], the
// range the evaluation caches can key, and when n > 0 there must be
// exactly n entries.
func ParseSchedule(text string, n int) (Schedule, error) {
	fields := strings.Split(text, ",")
	if n > 0 && len(fields) != n {
		return nil, fmt.Errorf("sched: %q has %d entries, want %d", text, len(fields), n)
	}
	s := make(Schedule, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 || v > MaxPackedCoord {
			return nil, fmt.Errorf("sched: bad entry %q in %q (want an integer in [1, %d])", f, text, MaxPackedCoord)
		}
		s[i] = v
	}
	return s, nil
}

// String renders the schedule as "(m1, m2, ..., mn)". It is also the
// memoization key of every evaluation cache, so it builds the string
// directly instead of routing each entry through fmt.
func (s Schedule) String() string {
	var b strings.Builder
	b.Grow(2 + 4*len(s))
	b.WriteByte('(')
	for i, m := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(m))
	}
	b.WriteByte(')')
	return b.String()
}

// Key returns a map key for memoizing schedule evaluations.
func (s Schedule) Key() string { return s.String() }

// BurstLength returns the duration of one burst of m consecutive tasks of
// app: Ewc(1) + (m-1) * Ewc(2).
func BurstLength(app AppTiming, m int) float64 {
	return app.ColdWCET + float64(m-1)*app.WarmWCET
}

// PeriodLength returns the total schedule period: the sum of all bursts.
func PeriodLength(apps []AppTiming, s Schedule) float64 {
	total := 0.0
	for i, app := range apps {
		total += BurstLength(app, s[i])
	}
	return total
}

// AppSchedule is the derived control timing of one application under a
// schedule: the periodically repeating sampling periods h(j), the
// sensing-to-actuation delays tau(j) = Ewc(j), and the gap Delta during
// which the other applications run.
type AppSchedule struct {
	Name    string
	M       int       // burst length m_i
	WCETs   []float64 // Ewc(j), j = 1..m
	Periods []float64 // h(j), j = 1..m (h(m) includes the gap)
	Delays  []float64 // tau(j) = Ewc(j)
	Gap     float64   // Delta_i: sum of the other applications' bursts
}

// MaxPeriod returns the longest sampling period h_max (Eq. 4's left side).
func (a AppSchedule) MaxPeriod() float64 {
	max := 0.0
	for _, h := range a.Periods {
		if h > max {
			max = h
		}
	}
	return max
}

// HyperPeriod returns the sum of the sampling periods, which equals the
// schedule period.
func (a AppSchedule) HyperPeriod() float64 {
	s := 0.0
	for _, h := range a.Periods {
		s += h
	}
	return s
}

// Derive computes the control-timing parameters of every application under
// schedule s (Eq. 5-8).
func Derive(apps []AppTiming, s Schedule) ([]AppSchedule, error) {
	if !s.Valid(len(apps)) {
		return nil, fmt.Errorf("sched: schedule %v invalid for %d applications", s, len(apps))
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	out := make([]AppSchedule, len(apps))
	for i, app := range apps {
		m := s[i]
		gap := 0.0
		for k, other := range apps {
			if k != i {
				gap += BurstLength(other, s[k])
			}
		}
		wcets := make([]float64, m)
		periods := make([]float64, m)
		delays := make([]float64, m)
		for j := 0; j < m; j++ {
			if j == 0 {
				wcets[j] = app.ColdWCET
			} else {
				wcets[j] = app.WarmWCET
			}
			delays[j] = wcets[j]
			periods[j] = wcets[j]
		}
		periods[m-1] += gap
		out[i] = AppSchedule{
			Name: app.Name, M: m,
			WCETs: wcets, Periods: periods, Delays: delays, Gap: gap,
		}
	}
	return out, nil
}

// BurstGap returns Delta_i: the sum of every other application's burst
// length under s — the gap during which application i idles. The summation
// order equals Derive's, so the value is bit-identical to
// Derive(...)[i].Gap.
func BurstGap(apps []AppTiming, s Schedule, i int) float64 {
	gap := 0.0
	for k, other := range apps {
		if k != i {
			gap += BurstLength(other, s[k])
		}
	}
	return gap
}

// DerivedMaxPeriod returns AppSchedule.MaxPeriod() of app's derived timing
// under burst length m and gap, without materializing the period slices.
// The periods are Ewc(1), then m-2 equal Ewc(2), then the last one plus the
// gap, so the running maximum needs only the distinct values, compared in
// the dense order: selecting a maximum rounds nothing, so the result is
// bit-identical.
func DerivedMaxPeriod(app AppTiming, m int, gap float64) float64 {
	max := 0.0
	if m < 1 {
		return max
	}
	if m == 1 {
		if p := app.ColdWCET + gap; p > max {
			max = p
		}
		return max
	}
	if app.ColdWCET > max {
		max = app.ColdWCET
	}
	if m > 2 && app.WarmWCET > max {
		max = app.WarmWCET
	}
	if p := app.WarmWCET + gap; p > max {
		max = p
	}
	return max
}

// DerivedHyperPeriod returns AppSchedule.HyperPeriod() of app's derived
// timing under burst length m and gap: the sampling periods summed in index
// order, bit-identical to the dense computation.
func DerivedHyperPeriod(app AppTiming, m int, gap float64) float64 {
	sum := 0.0
	for j := 0; j < m; j++ {
		p := app.WarmWCET
		if j == 0 {
			p = app.ColdWCET
		}
		if j == m-1 {
			p += gap
		}
		sum += p
	}
	return sum
}

// IdleFeasible checks constraint (4): every application's longest sampling
// period must not exceed its maximum allowed idle time. Apps with
// MaxIdle <= 0 are unconstrained.
//
// It is the innermost predicate of every box enumeration and hybrid walk,
// so it evaluates the derived periods through the closed-form helpers above
// instead of materializing Derive's slices; the validation order, error
// values, and every float comparison match the Derive-based formulation
// bit for bit (TestIdleFeasibleMatchesDerive).
func IdleFeasible(apps []AppTiming, s Schedule) (bool, error) {
	if !s.Valid(len(apps)) {
		return false, fmt.Errorf("sched: schedule %v invalid for %d applications", s, len(apps))
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return false, err
		}
	}
	for i, app := range apps {
		if app.MaxIdle <= 0 {
			continue
		}
		gap := BurstGap(apps, s, i)
		if DerivedMaxPeriod(app, s[i], gap) > app.MaxIdle+1e-12 {
			return false, nil
		}
	}
	return true, nil
}

// EnumerateFeasible returns every schedule with 1 <= m_i <= maxM satisfying
// the idle-time constraint (4), in lexicographic order. maxM bounds the
// search box; the idle constraint itself usually prunes far below it. It
// collects FeasibleTree.Walk; searchers stream the walk instead.
func EnumerateFeasible(apps []AppTiming, maxM int) ([]Schedule, error) {
	t, err := NewFeasibleTree(apps, maxM)
	if err != nil {
		return nil, err
	}
	var out []Schedule
	err = t.Walk(func(s Schedule) error {
		out = append(out, s.Clone())
		return nil
	})
	return out, err
}

// FeasibleTree is the idle-feasible schedule box [1, maxM]^n as a depth-first
// tree: depth d fixes m_0..m_{d-1} (Cur's prefix), and the leaves in
// preorder are the schedules in lexicographic order. A prefix is cut as
// soon as an assigned application's longest derived period exceeds its
// idle budget at the minimal gap any completion can produce (free
// applications at m = 1): burst lengths only grow with m, gaps with burst
// lengths, and the derived maximum period with the gap — all bitwise, since
// IEEE rounding is monotone and the sums run in BurstGap's index order.
// At full depth the minimal gap is the exact gap, so the cut coincides with
// IdleFeasible's predicate and Walk visits exactly its feasible schedules.
// The exact searcher (internal/search) adds its bound cut on the same tree.
type FeasibleTree struct {
	apps []AppTiming
	maxM int
	// Cur is the schedule under construction; Walk passes it to visit, so
	// a visitor that keeps a schedule clones it.
	Cur Schedule
	bl  []float64 // burst length per app at the minimal completion
	gap []float64 // minimal gap per assigned app, as last checked
}

// NewFeasibleTree returns the tree of apps' box, with the argument checks
// and timing validation of the enumeration it replaces.
func NewFeasibleTree(apps []AppTiming, maxM int) (*FeasibleTree, error) {
	n := len(apps)
	if n == 0 || maxM < 1 {
		return nil, fmt.Errorf("sched: nothing to enumerate (n=%d, maxM=%d)", n, maxM)
	}
	t := &FeasibleTree{maxM: maxM, Cur: RoundRobin(n), bl: make([]float64, n), gap: make([]float64, n)}
	return t, t.Reset(apps)
}

// Reset re-targets the tree at another validated timing vector of the same
// length — the next partition's regime — keeping its buffers.
func (t *FeasibleTree) Reset(apps []AppTiming) error {
	if len(apps) != len(t.Cur) {
		return fmt.Errorf("sched: feasible tree over %d apps reset to %d", len(t.Cur), len(apps))
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	t.apps = apps
	return nil
}

// PrefixInfeasible reports whether the prefix Cur[0..d-1] has no
// idle-feasible completion. When it has one, MinGap holds each assigned
// application's minimal gap.
func (t *FeasibleTree) PrefixInfeasible(d int) bool {
	for k := range t.bl {
		m := 1
		if k < d {
			m = t.Cur[k]
		}
		t.bl[k] = BurstLength(t.apps[k], m)
	}
	for i := 0; i < d; i++ {
		gap := 0.0
		for k, b := range t.bl {
			if k != i {
				gap += b
			}
		}
		t.gap[i] = gap
		if a := t.apps[i]; a.MaxIdle > 0 && DerivedMaxPeriod(a, t.Cur[i], gap) > a.MaxIdle+1e-12 {
			return true
		}
	}
	return false
}

// MinGap returns assigned application i's (i < d) gap at the minimal
// completion of the prefix of depth d last found feasible by
// PrefixInfeasible: the smallest gap any completion can produce, equal to
// BurstGap at full depth.
func (t *FeasibleTree) MinGap(i int) float64 { return t.gap[i] }

// Walk passes every idle-feasible schedule of the box to visit, in
// lexicographic order, stopping at the first error visit returns.
func (t *FeasibleTree) Walk(visit func(Schedule) error) error {
	return t.walk(0, visit)
}

func (t *FeasibleTree) walk(d int, visit func(Schedule) error) error {
	if t.PrefixInfeasible(d) {
		return nil
	}
	if d == len(t.Cur) {
		return visit(t.Cur)
	}
	for m := 1; m <= t.maxM; m++ {
		t.Cur[d] = m
		if err := t.walk(d+1, visit); err != nil {
			return err
		}
	}
	return nil
}

// Slot is one task execution in a rendered schedule timeline.
type Slot struct {
	App   int
	Task  int     // 1-based task index within the burst
	Start float64 // seconds from schedule-period start
	End   float64
	Cold  bool // true when executed with a cold cache (first of burst)
}

// Timeline lays out one schedule period as a sequence of task slots, in
// burst order C1 ... Cn (Fig. 2/4 of the paper, rendered as data).
func Timeline(apps []AppTiming, s Schedule) ([]Slot, error) {
	if !s.Valid(len(apps)) {
		return nil, fmt.Errorf("sched: schedule %v invalid for %d applications", s, len(apps))
	}
	var slots []Slot
	t := 0.0
	for i, app := range apps {
		for j := 0; j < s[i]; j++ {
			w := app.WarmWCET
			cold := j == 0
			if cold {
				w = app.ColdWCET
			}
			slots = append(slots, Slot{App: i, Task: j + 1, Start: t, End: t + w, Cold: cold})
			t += w
		}
	}
	return slots, nil
}

// FormatTimeline renders Timeline output as a human-readable table, one
// line per task slot, with microsecond timestamps.
func FormatTimeline(apps []AppTiming, s Schedule) (string, error) {
	slots, err := Timeline(apps, s)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "schedule %s, period %.2f us\n", s, PeriodLength(apps, s)*1e6)
	for _, sl := range slots {
		state := "warm"
		if sl.Cold {
			state = "cold"
		}
		fmt.Fprintf(&sb, "  %-8s task %d  [%9.2f, %9.2f] us  (%s cache)\n",
			apps[sl.App].Name, sl.Task, sl.Start*1e6, sl.End*1e6, state)
	}
	return sb.String(), nil
}
