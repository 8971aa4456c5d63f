package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/sched"
	"repro/internal/wcet"
)

// Traffic of served-mix, per block of 20 requests: 13 design requests on
// the hot set (quick budget, answered from the memory tier), 1 cold design
// (tiny budget, a schedule no earlier request named) and 6 cold sweeps (a
// fresh seed every time). Exact per-block counts keep the mix identical
// from seed to seed; the seed shuffles each block and picks the inputs.
const (
	mixBlock   = 20
	mixHot     = 13
	mixCold    = 1
	hotSetSize = 8

	// refRate is the open-loop rate of the end-to-end latencies and of the
	// per-layer served metrics: light enough (well under a tenth of the
	// closed-loop capacity on the reference machine) that latency is
	// service time plus occasional queueing, not a function of how close
	// the machine happens to run to saturation.
	refRate = 100 // req/s
	// latencyLimitMs is the p90 a ladder step must meet to count towards
	// served.max_ok_rps.
	latencyLimitMs = 25

	// servedSegments is how many open-loop windows and capacity slices an
	// untraced run alternates. On the reference machine (2 vCPUs of a
	// shared host) the CPU ran up to 60% slower in stretches of 5-15 s;
	// with windows spread over the run, such a stretch moves a few windows,
	// not the median one.
	servedSegments = 6
)

// ladder is the traced run's open-loop rates, each for a share of the
// measuring time.
var ladder = []struct {
	rate float64
	frac float64
}{{50, 0.1}, {refRate, 0.3}, {200, 0.1}, {400, 0.1}, {800, 0.15}}

const (
	classHot = iota
	classCold
	classSweep
)

var classNames = [...]string{"design-hot", "design-cold", "sweep"}

// request is one generated request.
type request struct {
	id    int
	class int
	path  string
	sched sched.Schedule // design classes
	seed  int64          // sweep class
}

// mix generates the request sequence of one run.
type mix struct {
	mu    sync.Mutex
	rng   *rand.Rand
	hot   []sched.Schedule
	cold  []sched.Schedule // seeded permutation of the 8x8x8 box
	nCold int
	seed  int64
	next  int
	block []int
}

func newMix(seed int64) *mix {
	m := &mix{rng: rand.New(rand.NewSource(splitmix(seed, 7))), seed: seed}
	var box []sched.Schedule
	for a := 1; a <= 8; a++ {
		for b := 1; b <= 8; b++ {
			for c := 1; c <= 8; c++ {
				box = append(box, sched.Schedule{a, b, c})
			}
		}
	}
	// The hot set is drawn from the idle-feasible schedules, so every hot
	// answer is a full holistic design.
	timings, _, _ := apps.Timings(apps.CaseStudy(), wcet.PaperPlatform())
	var feasible []sched.Schedule
	for _, s := range box {
		if ok, err := sched.IdleFeasible(timings, s); err == nil && ok {
			feasible = append(feasible, s)
		}
	}
	for _, i := range m.rng.Perm(len(feasible))[:hotSetSize] {
		m.hot = append(m.hot, feasible[i])
	}
	for _, i := range m.rng.Perm(len(box)) {
		m.cold = append(m.cold, box[i])
	}
	return m
}

func designPath(s sched.Schedule, budget string) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = strconv.Itoa(v)
	}
	return "/v1/design?" + url.Values{"schedule": {strings.Join(parts, ",")}, "budget": {budget}}.Encode()
}

func sweepPath(seed int64) string {
	return fmt.Sprintf("/v1/sweep?n=4&platforms=4&exhaustive=1&seed=%d", seed)
}

// take returns the next request of the sequence; without cold, design-cold
// requests are skipped, so a closed loop cannot exhaust the cold schedules.
func (m *mix) take(cold bool) (request, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.block) == 0 || (!cold && m.block[0] == classCold) {
		if len(m.block) > 0 {
			m.block = m.block[1:]
			continue
		}
		for i := 0; i < mixBlock; i++ {
			c := classSweep
			if i < mixHot {
				c = classHot
			} else if i < mixHot+mixCold {
				c = classCold
			}
			m.block = append(m.block, c)
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	r := request{id: m.next, class: m.block[0]}
	m.block = m.block[1:]
	m.next++
	switch r.class {
	case classHot:
		r.sched = m.hot[m.rng.Intn(len(m.hot))]
		r.path = designPath(r.sched, "quick")
	case classCold:
		if m.nCold == len(m.cold) {
			return r, fmt.Errorf("served-mix: all %d cold schedules used", len(m.cold))
		}
		r.sched = m.cold[m.nCold]
		m.nCold++
		r.path = designPath(r.sched, "tiny")
	case classSweep:
		r.seed = splitmix(m.seed, uint64(1<<30+r.id))
		r.path = sweepPath(r.seed)
	}
	return r, nil
}

// reply is one answered request.
type reply struct {
	req     request
	latency float64 // seconds from due time to the last body byte
	body    []byte
	err     error
}

// client issues requests over at most nproc connections.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// do sends r and validates the answer: 200 with a JSON body.
func (c *client) do(r request) ([]byte, error) {
	resp, err := c.hc.Get(c.base + r.path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if !json.Valid(body) {
		return body, fmt.Errorf("%s: invalid JSON body", r.path)
	}
	return body, nil
}

// step is one open-loop stretch at a fixed Poisson rate.
type step struct {
	replies  []reply
	lateMax  float64 // seconds the generator sent behind schedule, worst case
	overrun  float64 // seconds the last reply arrived after the step's end
	inflight int64   // peak requests in flight
}

// openLoop sends requests at Poisson arrivals of the given rate for d,
// each on its own goroutine, timing each from its due time: a stalled
// server delays every later request and the wait counts.
func openLoop(c *client, m *mix, rng *rand.Rand, rate float64, d time.Duration, tr *tracer) (*step, error) {
	st := &step{}
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			break
		}
		due = append(due, t)
	}
	reqs := make([]request, len(due))
	for i := range reqs {
		r, err := m.take(true)
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	st.replies = make([]reply, len(due))
	var (
		wg                     sync.WaitGroup
		inflight, peak, lastNs atomic.Int64
	)
	start := time.Now()
	for i := range due {
		if wait := time.Until(start.Add(due[i])); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(start.Add(due[i])).Seconds(); late > st.lateMax {
			st.lateMax = late
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			storeMax(&peak, inflight.Add(1))
			r := reqs[i]
			sc := tr.begin("served", classNames[r.class], strconv.Itoa(r.id))
			body, err := c.do(r)
			done := time.Now()
			sc.end()
			inflight.Add(-1)
			st.replies[i] = reply{req: r, latency: done.Sub(start.Add(due[i])).Seconds(), body: body, err: err}
			storeMax(&lastNs, int64(done.Sub(start)))
		}(i)
	}
	wg.Wait()
	st.inflight = peak.Load()
	st.overrun = (time.Duration(lastNs.Load()) - d).Seconds()
	return st, nil
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// latencies returns the step's latencies of one class (-1: all).
func (s *step) latencies(class int) []float64 {
	var out []float64
	for _, r := range s.replies {
		if class < 0 || r.req.class == class {
			out = append(out, r.latency)
		}
	}
	return out
}

func (s *step) failures() int {
	n := 0
	for _, r := range s.replies {
		if r.err != nil {
			n++
		}
	}
	return n
}

func runServed(e *env) (*result, error) {
	res := &result{layer: map[string]float64{}}
	poll := &http.Client{Timeout: 10 * time.Second}

	// The server runs memory-only. With -store every cold sweep creates
	// ~460 record files, and a file create on the reference machine's ext4
	// costs 20-600 us depending on allocator state: the 50 req/s p90 swung
	// 30-340 ms between identical runs. persist-sweep measures the store
	// and the journal instead.
	//
	// Set-up is the server's start: launch to the first /readyz 200.
	var srv *served
	for k := 0; k < setups; k++ {
		s, secs, err := startReady(e.served, poll)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, secs)
		if k < setups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			srv = s
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	m := newMix(e.seed)
	c := newClient(srv.url, e.workers)
	for _, s := range m.hot {
		if _, err := c.do(request{path: designPath(s, "quick")}); err != nil {
			return nil, fmt.Errorf("warming the hot set: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(splitmix(e.seed, 11)))
	secs := func(frac float64) time.Duration { return time.Duration(frac * e.seconds * float64(time.Second)) }

	rss := sampleRSS(srv.pid())
	var steps []*step
	account := func(st *step) {
		res.attempted += len(st.replies)
		for _, r := range st.replies {
			if r.err != nil {
				res.failed++
				res.problem("%s request %d: %v", classNames[r.req.class], r.req.id, r.err)
			}
		}
	}
	// capacity runs nproc closed-loop callers over the mix without its cold
	// designs: a closed loop would burn through the finite cold schedules.
	capacity := func(frac float64, tr *tracer) *loop {
		l := runLoop(e.workers, -1, e.workers, 1, e.deadline(frac), func(int) error {
			r, err := m.take(false)
			if err != nil {
				return err
			}
			sc := tr.begin("served", classNames[r.class], strconv.Itoa(r.id))
			_, err = c.do(r)
			sc.end()
			return err
		})
		res.attempted += l.ops
		res.failed += l.failed
		if l.firstErr != nil {
			res.problem("capacity: %v", l.firstErr)
		}
		return l
	}

	if e.tr == nil {
		// Open-loop windows at the reference rate alternate with closed-loop
		// capacity slices, so both spread over the whole run, and each
		// end-to-end metric is the median over its windows or slices.
		var p50s, p90s, rates []float64
		for k := 0; k < servedSegments; k++ {
			st, err := openLoop(c, m, rng, refRate, secs(0.6/servedSegments), nil)
			if err != nil {
				return nil, err
			}
			steps = append(steps, st)
			account(st)
			p50s = append(p50s, percentile(st.latencies(-1), 50))
			p90s = append(p90s, percentile(st.latencies(-1), 90))
			l := capacity(0.3/servedSegments, nil)
			rates = append(rates, ratio(float64(l.ops), l.wall))
		}
		res.latP50, res.latP90, res.throughput = median(p50s), median(p90s), median(rates)
		res.info = append(res.info, fmt.Sprintf("capacity per slice (req/s): %.0f", rates))
	} else {
		layer := res.layer
		// Tracing overhead: closed-loop capacity untraced, then traced.
		lu := capacity(0.1, nil)
		lt := capacity(0.1, e.tr)
		layer["trace.overhead_pct"] = 100 * (ratio(float64(lu.ops)/lu.wall, float64(lt.ops)/lt.wall) - 1)

		maxOK := 0.0
		for _, ls := range ladder {
			before, err := srv.statsz(poll)
			if err != nil {
				return nil, err
			}
			st, err := openLoop(c, m, rng, ls.rate, secs(ls.frac), e.tr)
			if err != nil {
				return nil, err
			}
			after, err := srv.statsz(poll)
			if err != nil {
				return nil, err
			}
			steps = append(steps, st)
			account(st)
			p90 := 1e3 * percentile(st.latencies(-1), 90)
			res.info = append(res.info, fmt.Sprintf("step %g req/s: %d requests, p90 %.1f ms, %d failed, generator late %.1f ms, last reply %+.2f s after the step",
				ls.rate, len(st.replies), p90, st.failures(), 1e3*st.lateMax, st.overrun))
			if p90 <= latencyLimitMs && st.failures() == 0 && st.overrun <= 1 && ls.rate > maxOK {
				maxOK = ls.rate
			}
			if ls.rate != refRate {
				continue
			}
			layer["served.hot_p50_ms"] = 1e3 * percentile(st.latencies(classHot), 50)
			layer["served.hot_p90_ms"] = 1e3 * percentile(st.latencies(classHot), 90)
			layer["served.cold_p50_ms"] = 1e3 * percentile(st.latencies(classCold), 50)
			layer["served.sweep_p50_ms"] = 1e3 * percentile(st.latencies(classSweep), 50)
			layer["served.sweep_p90_ms"] = 1e3 * percentile(st.latencies(classSweep), 90)
			for class, name := range classNames {
				res.info = append(res.info, fmt.Sprintf("%g req/s %s: %d samples", ls.rate, name, len(st.latencies(class))))
			}
			delta := func(path string) float64 { return num(after, path) - num(before, path) }
			layer["served.design_executions"] = delta("designs.executions")
			layer["served.design_hit_ratio"] = ratio(delta("designs.memory_hits"), delta("designs.lookups"))
			layer["served.gen_late_ms_max"] = 1e3 * st.lateMax
			layer["served.inflight_max"] = float64(st.inflight)
			layer["parallel.waited"] = delta("executor.waited")
			layer["parallel.denied"] = delta("executor.denied")
			layer["parallel.peak_in_flight"] = num(after, "executor.peak_in_flight")
		}
		layer["served.max_ok_rps"] = maxOK
		layerTimes(e, layer)
	}

	res.rssMB = rss.median()
	if err := servedOracle(steps, res); err != nil {
		return nil, err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return res, nil
}

// servedOracle recomputes sampled answers in process: design answers must
// equal exp.DefaultFramework(budget).EvaluateJoint bit for bit, and sweep
// answers must equal engine.Sweep of the same grid.
func servedOracle(steps []*step, res *result) error {
	const perClass = 2
	var picked [3][]reply
	for _, st := range steps {
		for _, r := range st.replies {
			if r.err == nil && len(picked[r.req.class]) < perClass {
				picked[r.req.class] = append(picked[r.req.class], r)
			}
		}
	}
	for class, budget := range map[int]string{classHot: "quick", classCold: "tiny"} {
		fw, err := exp.DefaultFramework(exp.Budget(budget))
		if err != nil {
			return err
		}
		for _, r := range picked[class] {
			var body struct {
				Results []struct {
					Pall         float64 `json:"pall"`
					Feasible     bool    `json:"feasible"`
					IdleFeasible bool    `json:"idle_feasible"`
					Apps         []struct {
						Performance float64  `json:"performance"`
						SettlingMs  *float64 `json:"settling_ms"`
					} `json:"apps"`
				} `json:"results"`
			}
			if err := json.Unmarshal(r.body, &body); err != nil || len(body.Results) != 1 {
				res.problem("design %v: unexpected answer %s", r.req.sched, r.body)
				continue
			}
			ev, err := fw.EvaluateJoint(sched.SharedPoint(r.req.sched))
			if err != nil {
				return err
			}
			got := body.Results[0]
			ok := math.Float64bits(got.Pall) == math.Float64bits(ev.Pall) &&
				got.Feasible == ev.Feasible && got.IdleFeasible == ev.IdleFeasible && len(got.Apps) == len(ev.Apps)
			for i := 0; ok && i < len(ev.Apps); i++ {
				ok = math.Float64bits(got.Apps[i].Performance) == math.Float64bits(ev.Apps[i].Performance)
				if st := ev.Apps[i].Design.SettlingTime; ok && !math.IsInf(st, 0) && !math.IsNaN(st) {
					ok = got.Apps[i].SettlingMs != nil && math.Float64bits(*got.Apps[i].SettlingMs) == math.Float64bits(st*1e3)
				}
			}
			if !ok {
				res.problem("design %v (%s): served %s, in process P_all %v", r.req.sched, budget, r.body, ev.Pall)
			}
		}
	}
	for _, r := range picked[classSweep] {
		var body struct {
			Rows []struct {
				Best      string  `json:"best"`
				Pall      float64 `json:"pall"`
				Found     bool    `json:"found"`
				Evaluated int     `json:"evaluated"`
				Hits      int64   `json:"hits"`
				Misses    int64   `json:"misses"`
				DiskHits  int64   `json:"disk_hits"`
			} `json:"rows"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			res.problem("sweep seed %d: unexpected answer %s", r.req.seed, r.body)
			continue
		}
		scs, err := engine.Grid{N: 4, Seed: r.req.seed, Tol: 0.01, Budget: exp.Budget("tiny"), Platforms: 4, Exhaustive: true}.Scenarios()
		if err != nil {
			return err
		}
		want, err := engine.Sweep(engine.Config{Workers: 1}, scs)
		if err != nil {
			return err
		}
		ok := len(body.Rows) == len(want)
		for i := 0; ok && i < len(want); i++ {
			w, g := want[i], body.Rows[i]
			best := ""
			if w.FoundBest {
				best = w.Best.String()
			}
			ok = g.Best == best && math.Float64bits(g.Pall) == math.Float64bits(w.BestValue) && g.Found == w.FoundBest &&
				g.Evaluated == w.Evaluated && g.Hits == w.CacheStats.Hits && g.Misses == w.CacheStats.Misses && g.DiskHits == 0
		}
		if !ok {
			res.problem("sweep seed %d: served answer differs from engine.Sweep", r.req.seed)
		}
	}
	return nil
}
