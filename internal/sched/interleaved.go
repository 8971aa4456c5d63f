package sched

import (
	"fmt"
	"strings"
)

// Burst is one run of consecutive tasks of a single application inside an
// interleaved schedule.
type Burst struct {
	App   int // application index
	Count int // number of consecutive tasks
}

// Interleaved is a generalized periodic schedule in which an application
// may appear in several bursts per period, e.g. (m1(1), m2, m1(2), m3).
// This implements the future-work extension sketched in Section VI of the
// paper. A plain Schedule (m1, ..., mn) is the special case of one burst
// per application in index order.
type Interleaved []Burst

// FromSchedule converts a plain periodic schedule to its interleaved
// representation.
func FromSchedule(s Schedule) Interleaved {
	out := make(Interleaved, 0, len(s))
	for i, m := range s {
		out = append(out, Burst{App: i, Count: m})
	}
	return out
}

// Valid checks that bursts reference valid applications with positive
// counts, that every application appears at least once, and that no two
// adjacent bursts (cyclically) belong to the same application (they would
// simply merge).
func (iv Interleaved) Valid(n int) error {
	if len(iv) == 0 {
		return fmt.Errorf("sched: empty interleaved schedule")
	}
	seen := make([]bool, n)
	for _, b := range iv {
		if b.App < 0 || b.App >= n {
			return fmt.Errorf("sched: burst references app %d of %d", b.App, n)
		}
		if b.Count < 1 {
			return fmt.Errorf("sched: burst of app %d has count %d", b.App, b.Count)
		}
		seen[b.App] = true
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("sched: app %d never scheduled", i)
		}
	}
	for i, b := range iv {
		next := iv[(i+1)%len(iv)]
		if len(iv) > 1 && b.App == next.App {
			return fmt.Errorf("sched: adjacent bursts %d and %d belong to the same app %d", i, (i+1)%len(iv), b.App)
		}
	}
	return nil
}

// String renders e.g. "(C0 x2 | C1 x1 | C0 x1)".
func (iv Interleaved) String() string {
	parts := make([]string, len(iv))
	for i, b := range iv {
		parts[i] = fmt.Sprintf("C%d x%d", b.App, b.Count)
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

// DeriveInterleaved computes per-application control timing under an
// interleaved schedule. The cache-reuse model follows the paper: the first
// task of every burst runs cold (other applications have polluted the
// cache in between), and tasks after the first within a burst run warm.
// Sampling periods are the distances between consecutive task start times
// of the same application around the period.
func DeriveInterleaved(apps []AppTiming, iv Interleaved) ([]AppSchedule, error) {
	if err := iv.Valid(len(apps)); err != nil {
		return nil, err
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	// Lay out all tasks in time.
	type taskInst struct {
		app   int
		start float64
		wcet  float64
	}
	var tasks []taskInst
	t := 0.0
	for _, b := range iv {
		app := apps[b.App]
		for j := 0; j < b.Count; j++ {
			w := app.WarmWCET
			if j == 0 {
				w = app.ColdWCET
			}
			tasks = append(tasks, taskInst{app: b.App, start: t, wcet: w})
			t += w
		}
	}
	period := t

	out := make([]AppSchedule, len(apps))
	for i := range apps {
		var starts, wcets []float64
		for _, tk := range tasks {
			if tk.app == i {
				starts = append(starts, tk.start)
				wcets = append(wcets, tk.wcet)
			}
		}
		m := len(starts)
		periods := make([]float64, m)
		delays := make([]float64, m)
		for j := 0; j < m; j++ {
			next := j + 1
			if next == m {
				periods[j] = period - starts[j] + starts[0]
			} else {
				periods[j] = starts[next] - starts[j]
			}
			delays[j] = wcets[j]
		}
		// Gap: the longest stretch with no task of this app running,
		// reported for diagnostics (the idle before the burst that the
		// worst-case settling measurement starts after).
		gap := 0.0
		for j := 0; j < m; j++ {
			if g := periods[j] - wcets[j]; g > gap {
				gap = g
			}
		}
		out[i] = AppSchedule{
			Name: apps[i].Name, M: m,
			WCETs: wcets, Periods: periods, Delays: delays, Gap: gap,
		}
	}
	return out, nil
}

// IdleFeasibleInterleaved checks constraint (4) for interleaved schedules.
func IdleFeasibleInterleaved(apps []AppTiming, iv Interleaved) (bool, error) {
	der, err := DeriveInterleaved(apps, iv)
	if err != nil {
		return false, err
	}
	for i, a := range der {
		if apps[i].MaxIdle > 0 && a.MaxPeriod() > apps[i].MaxIdle+1e-12 {
			return false, nil
		}
	}
	return true, nil
}
