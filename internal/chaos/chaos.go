// Package chaos is seeded-deterministic fault injection for the cluster
// tests: an HTTP middleware that fails, delays, blackholes, or corrupts a
// configurable fraction of the requests flowing through it.
//
// The middleware draws every decision from one seeded stream, so a chaos
// run is a pure function of (seed, request order) — the cluster chaos
// matrix can assert exact outcomes ("the sweep report is bit-identical to
// the golden despite 30% store 500s") instead of flaky probabilistic ones,
// and a failing schedule reproduces from its seed.
//
// The injected faults mirror the real failure modes of the fabric's edges:
//
//   - Error: the remote answers but unhappily (HTTP 500).
//   - Latency: the remote is slow — retry budgets and deadlines must absorb it.
//   - Blackhole: the connection dies without a response for the next N
//     requests — what a partition or a dead coordinator looks like; this is
//     what opens breakers.
//   - Corrupt: the payload arrives mangled — the store contract says it
//     must read as a miss, never as a wrong record.
package chaos

import (
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
)

// Config parameterizes a Middleware. The zero value injects nothing.
type Config struct {
	// Seed selects the deterministic fault stream (0 resolves to 1).
	Seed int64
	// ErrRate in [0, 1] is the fraction of requests answered with a 500.
	ErrRate float64
	// CorruptRate in [0, 1] is the fraction of successful responses whose
	// body is mangled before delivery.
	CorruptRate float64
	// Latency is added to every request, before the fault decision.
	Latency time.Duration
}

// Stats counts the faults a Middleware actually dealt.
type Stats struct {
	Ops         int64 `json:"ops"`
	Errors      int64 `json:"errors"`
	Corruptions int64 `json:"corruptions"`
	Blackholed  int64 `json:"blackholed"`
}

// Middleware wraps an http.Handler with seeded fault injection: per the
// Config, requests are delayed, answered with a 500, or — while a
// Blackhole budget is armed — aborted without any response (the client
// sees a transport error, exactly like a partition or a process that died
// mid-request). CorruptRate mangles response bodies of otherwise
// successful requests, exercising client-side corruption detection.
//
// All methods are safe for concurrent use. The fault stream is consumed in
// request-arrival order, so single-client tests are exactly reproducible.
type Middleware struct {
	next http.Handler
	cfg  Config

	mu  sync.Mutex
	rng *rand.Rand

	blackhole atomic.Int64 // requests left to blackhole

	ops         atomic.Int64
	errors      atomic.Int64
	corruptions atomic.Int64
	blackholed  atomic.Int64
}

// NewMiddleware wraps next with seeded fault injection.
func NewMiddleware(next http.Handler, cfg Config) *Middleware {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Middleware{next: next, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// decide draws one request's fate from the seeded stream. The two draws
// happen unconditionally so the stream position depends only on the
// request index, not on the configured rates.
func (m *Middleware) decide() (fail, corrupt, blackholed bool) {
	m.ops.Add(1)
	for {
		n := m.blackhole.Load()
		if n <= 0 {
			break
		}
		if m.blackhole.CompareAndSwap(n, n-1) {
			m.blackholed.Add(1)
			return true, false, true // blackholed requests don't consume the rng stream
		}
	}
	m.mu.Lock()
	f, c := m.rng.Float64(), m.rng.Float64()
	m.mu.Unlock()
	fail = f < m.cfg.ErrRate
	corrupt = c < m.cfg.CorruptRate
	if fail {
		m.errors.Add(1)
	}
	return fail, corrupt, false
}

// Blackhole makes the next n requests abort their connection — a seeded
// way to stage "the coordinator just died" at an exact point in the
// schedule.
func (m *Middleware) Blackhole(n int) { m.blackhole.Store(int64(n)) }

// Stats snapshots the injected-fault counters.
func (m *Middleware) Stats() Stats {
	return Stats{
		Ops:         m.ops.Load(),
		Errors:      m.errors.Load(),
		Corruptions: m.corruptions.Load(),
		Blackholed:  m.blackholed.Load(),
	}
}

func (m *Middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.cfg.Latency > 0 {
		time.Sleep(m.cfg.Latency)
	}
	fail, corrupt, blackholed := m.decide()
	if fail {
		if blackholed {
			// Abort the connection without writing a response: net/http
			// recognizes ErrAbortHandler and drops the connection, so the
			// client observes EOF/reset — a transport error, not a status.
			panic(http.ErrAbortHandler)
		}
		http.Error(w, "chaos: injected failure", http.StatusInternalServerError)
		return
	}
	if !corrupt {
		m.next.ServeHTTP(w, r)
		return
	}
	// Serve the real response with its body mangled. Buffer it so the
	// corruption flips a mid-payload byte regardless of how the inner
	// handler chunked its writes.
	var rec resilience.ResponseBuffer
	m.next.ServeHTTP(&rec, r)
	m.corruptions.Add(1)
	mangle(rec.Bytes())
	rec.Flush(w)
}

// mangle corrupts a body in place without changing its length: the first
// byte is flipped — which reliably breaks JSON framing, a mid-string flip
// could still parse — and so is a middle byte, for payloads whose parsers
// skip leading garbage.
func mangle(data []byte) {
	if len(data) == 0 {
		return
	}
	data[0] ^= 0xff
	data[len(data)/2] ^= 0xff
}
