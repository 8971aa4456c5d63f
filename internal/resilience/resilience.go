// Package resilience is the failure-handling substrate of the cluster
// edges: a retry policy (capped exponential backoff with deterministic
// seeded jitter and retryable-error classification) and a circuit breaker
// (closed → open → half-open with a single probe), both on injectable
// clocks so every delay schedule and state transition is pinned by tests.
//
// The package encodes one decision table, shared by every HTTP edge of the
// distributed sweep fabric (internal/store/httpstore, internal/fabric,
// cmd/sweep -remote):
//
//   - Transport errors (connection refused, reset, per-op deadline) are
//     transient: the remote may be restarting, the packet may have been
//     lost. Retry with backoff.
//   - 5xx and 429 responses are transient: the remote is alive but
//     overloaded or mid-failure. Retry with backoff, honoring Retry-After
//     when the remote supplies one (load shedding in cmd/served does).
//   - Other 4xx responses are definitive: the request itself is wrong and
//     will be wrong again. Fail immediately.
//   - The caller's own context cancellation always wins: a retry loop
//     never outlives the operation it serves.
//
// Sustained failure flips the breaker open, converting each would-be call
// into an immediate ErrCircuitOpen — a dead coordinator costs microseconds
// per lookup instead of a transport timeout per lookup. After a cooldown
// the breaker admits exactly one probe (half-open); success closes it,
// failure re-opens it for another cooldown.
//
// Determinism: jitter draws from a seeded stream per call slot, never from
// global randomness, so tests pin exact backoff sequences and two runs of
// a seeded chaos scenario retry on identical schedules.
//
// Endpoint is the one client envelope every HTTP client of the fabric
// embeds: per-attempt deadlines, this retry policy and a breaker around
// each request, with only the mapping of response statuses left to the
// protocol client. The server side of the same edges shares DecodeJSON's
// body cap and ResponseBuffer.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"
)

// ErrCircuitOpen is returned (wrapped) by Retryer.Do when the breaker is
// open and the call was short-circuited without touching the remote.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// StatusError is an HTTP response classified for retry: the status code
// decides retryability and RetryAfter carries the server's backpressure
// hint (from a Retry-After header, zero when absent).
type StatusError struct {
	Code       int
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("resilience: http status %d %s", e.Code, http.StatusText(e.Code))
}

// NewStatusError builds a StatusError from a response status and its
// Retry-After header value (seconds form only; HTTP-date forms are ignored
// — a missing hint just means default backoff).
func NewStatusError(code int, retryAfter string) *StatusError {
	e := &StatusError{Code: code}
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// Retryable reports whether err is worth retrying under the package's
// classification: transport errors yes, 5xx/429 yes, other HTTP statuses
// no, caller cancellation no.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	// A *per-attempt* deadline or cancellation arrives wrapped in a
	// url.Error by net/http: that is a transport failure of one attempt
	// (slow remote, lost packet) and retryable. It must be classified
	// before the bare context sentinels below — url.Error unwraps to them.
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	// The caller gave up (or its deadline passed): retrying would race a
	// result nobody is waiting for. Do additionally checks the operation
	// context between attempts, so a caller cancellation mid-attempt stops
	// the loop even when the attempt error itself reads as transport.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusTooManyRequests || se.Code >= 500
	}
	// Everything else — dial errors, resets, truncated bodies, per-attempt
	// timeouts wrapped by the HTTP client — is transport-shaped: transient.
	return true
}

// retryAfterHint extracts the server's Retry-After duration from err, if
// any.
func retryAfterHint(err error) (time.Duration, bool) {
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		return se.RetryAfter, true
	}
	return 0, false
}

// Policy parameterizes a retry loop. The zero value is usable and resolves
// to the documented defaults.
type Policy struct {
	// MaxAttempts is the total number of attempts, first try included
	// (default 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the pre-jitter backoff after the first failure
	// (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the pre-jitter exponential growth (default 2s).
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// Seed selects the deterministic jitter stream (default 1).
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Delays renders the policy's pre-jitter backoff schedule: the capped
// exponential delay after attempt 1, 2, ... MaxAttempts-1. Exposed so
// tests (and docs) can state the schedule in one place.
func (p Policy) Delays() []time.Duration {
	p = p.withDefaults()
	out := make([]time.Duration, 0, p.MaxAttempts-1)
	d := p.BaseDelay
	for i := 1; i < p.MaxAttempts; i++ {
		if d > p.MaxDelay {
			d = p.MaxDelay
		}
		out = append(out, d)
		d = time.Duration(float64(d) * p.Multiplier)
	}
	return out
}

// Stats snapshots a Retryer's counters.
type Stats struct {
	Calls         int64 `json:"calls"`          // Do invocations
	Retries       int64 `json:"retries"`        // attempts beyond the first
	Exhausted     int64 `json:"exhausted"`      // Do calls that failed every attempt
	ShortCircuits int64 `json:"short_circuits"` // attempts refused by an open breaker
}

// Retryer executes operations under a Policy, optionally guarded by a
// Breaker. All methods are safe for concurrent use; construct with
// NewRetryer.
type Retryer struct {
	policy Policy
	// Breaker, when non-nil, is consulted before every attempt and told
	// about every attempt's outcome; an open breaker short-circuits the
	// whole Do call with ErrCircuitOpen.
	breaker *Breaker
	// sleep is the injectable delay primitive (tests replace it to pin
	// schedules without waiting them out).
	sleep func(ctx context.Context, d time.Duration)

	calls         atomic.Int64
	retries       atomic.Int64
	exhausted     atomic.Int64
	shortCircuits atomic.Int64
}

// NewRetryer builds a Retryer from a policy and an optional breaker.
func NewRetryer(p Policy, b *Breaker) *Retryer {
	return &Retryer{policy: p.withDefaults(), breaker: b, sleep: Sleep}
}

// SetSleep replaces the delay primitive (test hook). Passing nil restores
// the real clock.
func (r *Retryer) SetSleep(sleep func(ctx context.Context, d time.Duration)) {
	if sleep == nil {
		sleep = Sleep
	}
	r.sleep = sleep
}

// Breaker returns the guarding breaker (nil when none).
func (r *Retryer) Breaker() *Breaker { return r.breaker }

// Stats snapshots the retry counters.
func (r *Retryer) Stats() Stats {
	return Stats{
		Calls:         r.calls.Load(),
		Retries:       r.retries.Load(),
		Exhausted:     r.exhausted.Load(),
		ShortCircuits: r.shortCircuits.Load(),
	}
}

// Sleep pauses for d or until ctx is cancelled, whichever comes first.
func Sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Do runs op under the policy: up to MaxAttempts tries, backing off
// between failures on the capped exponential schedule with seeded jitter
// (each delay is scaled into [50%, 100%] of its slot), preferring the
// server's Retry-After hint when one arrived. It returns nil on the first
// success, the last error once attempts are exhausted or the error is not
// retryable, and a wrapped ErrCircuitOpen immediately when the breaker is
// open. ctx cancellation stops the loop between attempts.
func (r *Retryer) Do(ctx context.Context, op func() error) error {
	call := r.calls.Add(1)
	// One deterministic jitter stream per Do call: the sequence depends on
	// the policy seed and the call slot, never on timing.
	rng := rand.New(rand.NewSource(r.policy.Seed + call))
	var err error
	for attempt := 0; ; attempt++ {
		if r.breaker != nil && !r.breaker.Allow() {
			r.shortCircuits.Add(1)
			if err != nil {
				return fmt.Errorf("%w (last error: %v)", ErrCircuitOpen, err)
			}
			return ErrCircuitOpen
		}
		err = op()
		if r.breaker != nil {
			// Only transient errors count against the breaker: a definitive
			// 4xx proves the remote is alive and answering — it is the
			// request that is wrong, not the circuit.
			if err != nil && Retryable(err) {
				r.breaker.Failure()
			} else {
				r.breaker.Success()
			}
		}
		if err == nil {
			return nil
		}
		if !Retryable(err) || attempt+1 >= r.policy.MaxAttempts {
			if Retryable(err) {
				r.exhausted.Add(1)
			}
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		delay := r.backoff(attempt, rng)
		if hint, ok := retryAfterHint(err); ok {
			delay = hint
		}
		r.retries.Add(1)
		r.sleep(ctx, delay)
		if ctx.Err() != nil {
			return err
		}
	}
}

// backoff computes the jittered delay after the given zero-based failed
// attempt: the capped exponential slot scaled by a seeded factor in
// [0.5, 1.0) — enough spread to desynchronize a fleet, enough floor to
// keep the schedule meaningfully exponential.
func (r *Retryer) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := float64(r.policy.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= r.policy.Multiplier
		if d >= float64(r.policy.MaxDelay) {
			d = float64(r.policy.MaxDelay)
			break
		}
	}
	if d > float64(r.policy.MaxDelay) {
		d = float64(r.policy.MaxDelay)
	}
	return time.Duration(d * (0.5 + 0.5*rng.Float64()))
}
