package resilience

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"
)

// DefaultOpTimeout is the per-attempt deadline of one call when Options
// leaves OpTimeout zero. Edge traffic is small JSON bodies on a fast link;
// an attempt slower than this is a dead or wedged remote, and the retry
// budget (not a long timeout) absorbs restarts.
const DefaultOpTimeout = 5 * time.Second

// Options configures an Endpoint's envelope. The zero value of every field
// resolves to a sane default.
type Options struct {
	// HTTPClient issues the requests; nil uses a default client with no
	// client-wide timeout (deadlines are per-attempt).
	HTTPClient *http.Client
	// OpTimeout is the per-attempt deadline of one call
	// (0 = DefaultOpTimeout, negative = no deadline).
	OpTimeout time.Duration
	// Policy is the retry policy for transient failures (zero value =
	// package defaults: 4 attempts, 50ms..2s backoff).
	Policy Policy
	// Breaker guards the edge; nil installs a default breaker (open after
	// 5 consecutive transient failures, 5s cooldown). Tests inject one on
	// a fake clock.
	Breaker *Breaker
}

// Endpoint is the client envelope of one remote HTTP service: every call
// runs under a per-attempt deadline, transient failures are retried on the
// seeded backoff schedule, and the breaker fails calls fast while the
// remote is down. The protocol clients (internal/fabric's lease client,
// internal/store/httpstore's store client) embed one each and add only
// their own mapping of response statuses onto results.
type Endpoint struct {
	base      string // remote base URL, no trailing slash
	hc        *http.Client
	opTimeout time.Duration
	retry     *Retryer
}

// NewEndpoint returns the envelope for the remote at baseURL.
func NewEndpoint(baseURL string, o Options) *Endpoint {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.OpTimeout == 0 {
		o.OpTimeout = DefaultOpTimeout
	}
	if o.Breaker == nil {
		o.Breaker = NewBreaker(0, 0)
	}
	return &Endpoint{
		base:      strings.TrimRight(baseURL, "/"),
		hc:        o.HTTPClient,
		opTimeout: o.OpTimeout,
		retry:     NewRetryer(o.Policy, o.Breaker),
	}
}

// Retryer exposes the retry loop (tests replace its sleep to pin schedules
// without waiting them out).
func (e *Endpoint) Retryer() *Retryer { return e.retry }

// Breaker exposes the circuit breaker guarding the edge.
func (e *Endpoint) Breaker() *Breaker { return e.retry.Breaker() }

// drainLimit bounds how much of an unread response body Do discards so the
// connection can be reused; a longer body is cut off with its connection.
const drainLimit = 64 << 10

// Do sends method base+path under the envelope. Each attempt builds a fresh
// request (body, when non-nil, is sent as JSON) under its own deadline and
// hands the response to handle, whose error decides the attempt exactly as
// for Retryer.Do: a StatusError or transport-shaped error is retried, a
// definitive 4xx is not. The body is drained and closed after handle.
func (e *Endpoint) Do(method, path string, body []byte, handle func(*http.Response) error) error {
	return e.retry.Do(context.Background(), func() error {
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if e.opTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, e.opTimeout)
		}
		defer cancel()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, e.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := e.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		err = handle(resp)
		io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
		return err
	})
}

// MaxBodyBytes caps every JSON request body the service edge decodes. Edge
// requests are small specs and batches; a body near the cap is a broken or
// hostile client.
const MaxBodyBytes = 1 << 20

// DecodeJSON decodes r's JSON body into v, reading at most MaxBodyBytes: a
// longer body fails the decode (and closes the connection after the
// response) instead of being read whole.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
}

// ResponseBuffer is an http.ResponseWriter that captures a whole response
// for later replay with Flush — so a request deadline can race a handler
// and send either its complete answer or none of it, and fault injection
// can rewrite a body after the handler chunked it. The zero value is ready
// to use.
type ResponseBuffer struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *ResponseBuffer) Header() http.Header {
	if b.header == nil {
		b.header = make(http.Header)
	}
	return b.header
}

func (b *ResponseBuffer) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *ResponseBuffer) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}

// Bytes returns the captured body. It aliases the buffer: edits to it are
// what Flush sends.
func (b *ResponseBuffer) Bytes() []byte { return b.body.Bytes() }

// Flush replays the captured response onto w: headers, the status (200
// when the handler never set one), then the body.
func (b *ResponseBuffer) Flush(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	if b.code == 0 {
		b.code = http.StatusOK
	}
	w.WriteHeader(b.code)
	w.Write(b.body.Bytes())
}
