package chaos

import (
	"net/http"

	"repro/internal/resilience"
)

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
	*injector
}

// NewMiddleware wraps next with seeded fault injection.
func NewMiddleware(next http.Handler, cfg Config) *Middleware {
	return &Middleware{next: next, injector: newInjector(cfg)}
}

func (m *Middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.delay()
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
	body := rec.Bytes()
	copy(body, mangle(body))
	rec.Flush(w)
}
