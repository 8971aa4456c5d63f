package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer,
// in memory, plus aggregated timers for calls too fine-grained to keep one
// span each (evaluator calls, store and HTTP round trips). A nil *tracer
// and a nil *scope are valid and record nothing, so traced and untraced
// runs share one code path.
type tracer struct {
	start time.Time

	mu     sync.Mutex
	spans  []*span
	timers map[string]*timer
}

type span struct {
	id, parent int
	layer      string
	name       string
	ref        string // scenario or request ID shared by all spans of one root
	start, end time.Duration

	// covered is the part of the span spent in child spans and in timer
	// observations made while it was the innermost open span.
	covered atomic.Int64
}

// timer aggregates observations of one fine-grained call.
type timer struct {
	layer string
	keep  bool // keep every sample for percentiles

	n     atomic.Int64
	total atomic.Int64 // nanoseconds

	mu      sync.Mutex
	samples []float64 // seconds
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), timers: map[string]*timer{}}
}

// timer returns the named timer, creating it on first use.
func (t *tracer) timer(name, layer string, keep bool) *timer {
	t.mu.Lock()
	defer t.mu.Unlock()
	tm, ok := t.timers[name]
	if !ok {
		tm = &timer{layer: layer, keep: keep}
		t.timers[name] = tm
	}
	return tm
}

func (tm *timer) add(d time.Duration) {
	tm.n.Add(1)
	tm.total.Add(int64(d))
	if tm.keep {
		tm.mu.Lock()
		tm.samples = append(tm.samples, d.Seconds())
		tm.mu.Unlock()
	}
}

// stats returns the timer's count, total seconds and kept samples; a
// timer never observed reads as zeros.
func (t *tracer) timerStats(name string) (n int64, total float64, samples []float64) {
	if t == nil {
		return 0, 0, nil
	}
	t.mu.Lock()
	tm := t.timers[name]
	t.mu.Unlock()
	if tm == nil {
		return 0, 0, nil
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.n.Load(), time.Duration(tm.total.Load()).Seconds(), append([]float64(nil), tm.samples...)
}

func (t *tracer) open(layer, name, ref string, parent *span) *span {
	s := &span{layer: layer, name: name, ref: ref, start: time.Since(t.start)}
	t.mu.Lock()
	s.id = len(t.spans) + 1
	if parent != nil {
		s.parent = parent.id
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// scope is one root operation (a scenario or a request) being traced. Its
// spans nest strictly; timer observations may arrive from helper
// goroutines of the innermost open span.
type scope struct {
	tr   *tracer
	root *span
	cur  atomic.Pointer[span]
}

// begin opens a root span; on a nil tracer it returns a nil scope.
func (t *tracer) begin(layer, name, ref string) *scope {
	if t == nil {
		return nil
	}
	sc := &scope{tr: t, root: t.open(layer, name, ref, nil)}
	sc.cur.Store(sc.root)
	return sc
}

// end closes the root span.
func (sc *scope) end() {
	if sc == nil {
		return
	}
	sc.root.end = time.Since(sc.tr.start)
}

// do runs fn inside a child span of the innermost open span.
func (sc *scope) do(layer, name string, fn func()) {
	if sc == nil {
		fn()
		return
	}
	parent := sc.cur.Load()
	s := sc.tr.open(layer, name, sc.root.ref, parent)
	sc.cur.Store(s)
	fn()
	s.end = time.Since(sc.tr.start)
	sc.cur.Store(parent)
	parent.covered.Add(int64(s.end - s.start))
}

// observe records d on the named timer and charges it to the innermost
// open span.
func (sc *scope) observe(tm *timer, d time.Duration) {
	if sc == nil {
		return
	}
	tm.add(d)
	sc.cur.Load().covered.Add(int64(d))
}

// layerSelf returns every layer's self time in seconds: span durations
// minus the part covered by children, plus timer totals, which have no
// children of their own.
func (t *tracer) layerSelf() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		self := s.end - s.start - time.Duration(s.covered.Load())
		if self < 0 {
			// Children ran on parallel helper goroutines and overlapped.
			self = 0
		}
		out[s.layer] += self.Seconds()
	}
	for _, tm := range t.timers {
		out[tm.layer] += time.Duration(tm.total.Load()).Seconds()
	}
	return out
}

// spanTotal sums the durations of the spans with the given layer and name.
func (t *tracer) spanTotal(layer, name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seconds := 0.0
	for _, s := range t.spans {
		if s.layer == layer && s.name == name {
			seconds += (s.end - s.start).Seconds()
		}
	}
	return seconds
}

// rootTotal sums root span durations.
func (t *tracer) rootTotal() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for _, s := range t.spans {
		if s.parent == 0 {
			total += (s.end - s.start).Seconds()
		}
	}
	return total
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	type rec struct {
		ID      int     `json:"id"`
		Parent  int     `json:"parent,omitempty"`
		Layer   string  `json:"layer"`
		Name    string  `json:"name"`
		Ref     string  `json:"ref,omitempty"`
		StartUs float64 `json:"start_us"`
		EndUs   float64 `json:"end_us"`
	}
	t.mu.Lock()
	recs := make([]rec, len(t.spans))
	for i, s := range t.spans {
		recs[i] = rec{s.id, s.parent, s.layer, s.name, s.ref,
			float64(s.start.Nanoseconds()) / 1e3, float64(s.end.Nanoseconds()) / 1e3}
	}
	t.mu.Unlock()
	data, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
