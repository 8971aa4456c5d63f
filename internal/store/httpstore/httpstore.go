// Package httpstore is the remote arm of the persistent tier: a client
// that speaks a coordinator's /v1/store/ endpoints as an
// evalcache.Backend, and the matching HTTP handler the coordinator mounts
// in front of its local disk store. Together they let a sweep worker's
// persistent tier live on another machine — every evaluation outcome and
// scenario checkpoint a worker writes lands in the coordinator's store,
// and warm records answer over the wire instead of recomputing.
//
// There is one read route, one probe and one write route. GET
// /v1/store/{key} reads one record. GET /v1/store/?dir=<dir> asks whether
// any record lies in a directory (a key prefix ending in '/', such as a
// scenario's evaluation namespace): 200 when one does, 204 when none does.
// A worker asks it once before a scenario reads its namespace, and skips
// every read of a namespace that is empty. PUT /v1/store/ writes a batch:
// an ordered JSON array of {"key", "payload"} records. Client.Put is a
// batch of one; a Batch buffers a unit of work's writes and publishes them
// in as few requests as the per-request record cap allows (one for a
// typical worker scenario). The empty key is never a record key, so the
// routes cannot collide. A client from before batching, which PUTs each
// record to its own key, gets 405 on every write: coordinator and workers
// are upgraded together. A coordinator from before the probe answers it
// 404, which reads as "present": the worker then reads as it always did.
//
// The client preserves the store contract exactly:
//
//   - Reads never fail the caller. A connection error, a non-200 status, a
//     coordinator without a store (503), or a record the coordinator's disk
//     store rejected as corrupt (404 — corruption is detected server-side
//     by the frame's CRC, key and checksum checks) all read as a miss.
//   - The probe fails safe. Only a 204 reads as "absent"; a transport
//     error, any other status, or an open breaker reads as "present", so a
//     failed probe costs the reads it would have saved and never a hit.
//   - Writes are best-effort and whole per record. The server validates a
//     batch whole — body and record-count caps, non-empty keys and
//     payloads, per-payload cap — before writing anything, then hands the
//     records to the store's PutBatch in body order: a disk store appends
//     the whole batch to its segment in one write. Racing workers, which
//     (evaluations being deterministic) carry identical payloads, can only
//     race complete records.
//
// On top of that contract sits the resilience layer (internal/resilience):
// every Get and every batch PUT runs under a per-operation deadline (no
// client-wide 30s timeout — a hung coordinator costs one OpTimeout per
// attempt, bounded by the retry budget), transient failures (transport
// errors, 5xx, 429) are retried on a seeded-jitter backoff schedule — a
// retried batch is idempotent — and a circuit breaker turns sustained
// failure into immediate misses: with the breaker open, a Get against a
// dead coordinator returns in microseconds instead of stalling the sweep's
// hot path, and a half-open probe re-admits traffic once the coordinator
// recovers. A definitive 404 is a healthy answer — it is never retried and
// never trips the breaker.
//
// Read keys travel in the URL path, percent-escaped per segment so the
// literal '/' separators of the store's namespaces survive routing while
// every other byte (spaces, parens, '%') round-trips exactly.
package httpstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/resilience"
	"repro/internal/store"
)

// pathPrefix is the route both ends agree on; Handler strips it, Client
// prepends it.
const pathPrefix = "/v1/store/"

// maxPayload bounds one record's payload at both ends. Records are small
// JSON documents (checkpoints, outcomes, rendered tables); anything near
// this limit is a broken or hostile client.
const maxPayload = 8 << 20

// Batch limits. A request's server time grows with its record count and
// must stay well inside the client's per-attempt deadline
// (resilience.DefaultOpTimeout, 5 s) or every attempt times out. A disk
// store lands a batch as one segment append (plus one fsync with
// -store-sync).
//
//   - maxBatchRecords caps the records in one request, at both ends: 256
//     records cost the disk store one append of milliseconds.
//     A worker's scenario writes ~50 (persist-sweep) to a few hundred
//     records at default sizes, so it still goes out in one request; an
//     exhaustive scenario at the job caps writes up to ~270,000, which a
//     Batch publishes 256 at a time instead of buffering.
//   - flushBytes is where the client starts a new request by size; 256
//     typical records are ~36 KB of body, so it binds only for unusually
//     large records. A single record larger than flushBytes travels alone.
//   - maxBatchBytes bounds one batch body on the server side: room for a
//     record at maxPayload plus its framing.
const (
	maxBatchRecords = 256
	flushBytes      = 1 << 20
	maxBatchBytes   = 16 << 20
)

// errBadPayload marks a response that arrived with an unusable body (empty
// or over maxPayload) — response-level corruption, counted in
// Stats.Corrupt.
var errBadPayload = errors.New("httpstore: empty or oversized payload")

// escapeKey renders a store key as a URL path suffix: each '/'-separated
// segment is percent-escaped independently, keeping the separators literal
// so the route still looks like the key ("o/<hash>/(3, 2, 3)").
func escapeKey(key string) string {
	segs := strings.Split(key, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return strings.Join(segs, "/")
}

// ResilienceStats snapshots the client's retry and breaker counters for
// observability endpoints (/statsz).
type ResilienceStats struct {
	Retry   resilience.Stats        `json:"retry"`
	Breaker resilience.BreakerStats `json:"breaker"`
}

// Client is an evalcache.Backend whose records live behind a
// coordinator's /v1/store endpoints, reached through a resilience.Endpoint;
// Stats reports its traffic in the disk store's counters. All methods are
// safe for concurrent use. The zero value is not usable; construct with
// New or NewWithOptions.
type Client struct {
	*resilience.Endpoint

	gets      atomic.Int64
	hits      atomic.Int64
	puts      atomic.Int64
	corrupt   atomic.Int64 // responses that arrived but were unusable
	putErrors atomic.Int64
}

// New returns a client for the coordinator at baseURL (e.g.
// "http://coordinator:8080") with the default resilience envelope.
// httpClient may be nil for a default.
func New(baseURL string, httpClient *http.Client) *Client {
	return NewWithOptions(baseURL, resilience.Options{HTTPClient: httpClient})
}

// NewWithOptions returns a client with an explicit resilience envelope.
func NewWithOptions(baseURL string, o resilience.Options) *Client {
	return &Client{Endpoint: resilience.NewEndpoint(baseURL, o)}
}

// Get fetches the payload stored under key. Any failure — transport error,
// non-200 status, oversized or unreadable body — reads as a miss, so a
// worker cut off from its coordinator keeps computing correctly, just
// colder. Transient failures are retried with backoff; with the breaker
// open the miss is immediate (no network round-trip at all).
func (c *Client) Get(key string) ([]byte, bool) {
	c.gets.Add(1)
	var data []byte
	found := false
	err := c.Do(http.MethodGet, pathPrefix+escapeKey(key), nil, func(resp *http.Response) error {
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			// A definitive miss from a healthy coordinator: not an error,
			// not retryable, not a breaker failure.
			return nil
		default:
			return resilience.NewStatusError(resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxPayload+1))
		if err != nil {
			return fmt.Errorf("httpstore: read body: %w", err)
		}
		if len(body) == 0 || len(body) > maxPayload {
			return errBadPayload
		}
		data, found = body, true
		return nil
	})
	if err != nil {
		if isResponseFailure(err) {
			c.corrupt.Add(1) // the endpoint answered but misbehaved
		}
		return nil, false
	}
	if !found {
		return nil, false
	}
	c.hits.Add(1)
	return data, true
}

// Holds reports whether the coordinator's store may hold a record in
// directory dir (a key prefix ending in '/'). Only a definite 204 reads as
// false: every failure — transport error, 5xx after retries, an open
// breaker, a 404 from a coordinator without the probe, a 400 for a
// malformed dir — reads as true, so a caller that skips reads on false
// never skips one that could hit.
func (c *Client) Holds(dir string) bool {
	absent := false
	err := c.Do(http.MethodGet, pathPrefix+"?dir="+url.QueryEscape(dir), nil, func(resp *http.Response) error {
		switch resp.StatusCode {
		case http.StatusNoContent:
			absent = true
		case http.StatusOK, http.StatusNotFound:
			// Present, or a coordinator that predates the probe: a healthy
			// answer either way, not retried and not a breaker failure.
		default:
			return resilience.NewStatusError(resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		return nil
	})
	return err != nil || !absent
}

// Put uploads payload under key, best-effort: a batch of one (see
// putBatch). Every failure is counted in Stats.PutErrors and swallowed,
// exactly like a disk-store write error.
func (c *Client) Put(key string, payload []byte) {
	c.putBatch([]record{{key, payload}})
}

// record is one {key, payload} element of a batch body. The payload
// travels as raw JSON (store payloads are JSON documents), so its bytes
// reach the server's backend exactly as the caller wrote them.
type record struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// checkRecord is the per-record guard both ends apply: a non-empty key and
// a non-empty payload of at most limit bytes.
func checkRecord(key string, payload []byte, limit int) error {
	switch {
	case key == "":
		return errors.New("empty key")
	case len(payload) == 0:
		return errors.New("empty payload")
	case len(payload) > limit:
		return fmt.Errorf("payload of %d bytes over the %d-byte limit", len(payload), limit)
	}
	return nil
}

// putBatch publishes recs in order, in one batch PUT per maxBatchRecords
// records or flushBytes of body, each under the client's retry/breaker
// envelope. A retried batch is idempotent: payloads are deterministic and
// the server lands each record whole. Stats.Puts counts records; a record
// the server could never accept (see checkRecord; also an invalid-UTF-8
// key or a non-JSON payload, which the JSON body cannot carry) is a put
// error without traffic, and a batch that fails counts every record it
// carried.
func (c *Client) putBatch(recs []record) {
	c.puts.Add(int64(len(recs)))
	body := make([]byte, 0, 256)
	n := 0
	send := func() {
		if n == 0 {
			return
		}
		body = append(body, ']')
		err := c.Do(http.MethodPut, pathPrefix, body, func(resp *http.Response) error {
			if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
				return resilience.NewStatusError(resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			return nil
		})
		if err != nil {
			c.putErrors.Add(int64(n))
		}
		body, n = body[:0], 0
	}
	for _, r := range recs {
		if checkRecord(r.Key, r.Payload, maxPayload) != nil || !utf8.ValidString(r.Key) || !json.Valid(r.Payload) {
			c.putErrors.Add(1)
			continue
		}
		k, _ := json.Marshal(r.Key) // a string always marshals
		if n == maxBatchRecords || n > 0 && len(body)+len(k)+len(r.Payload)+framing > flushBytes {
			send()
		}
		if n == 0 {
			body = append(body, '[')
		} else {
			body = append(body, ',')
		}
		body = append(body, `{"key":`...)
		body = append(body, k...)
		body = append(body, `,"payload":`...)
		body = append(body, r.Payload...)
		body = append(body, '}')
		n++
	}
	send()
}

// framing is the body bytes a record adds beyond its key and payload.
const framing = len(`,{"key":,"payload":}]`)

// Batch is a write buffer over a Client for one unit of work (a worker's
// scenario): Put buffers the record, Get answers buffered keys first
// (read-your-writes, so a scenario sees exactly the records it would see
// unbuffered) and falls through to the client, and Flush publishes the
// buffer. The buffer is bounded: the Put that fills it to maxBatchRecords
// records or flushBytes of body publishes it before returning, so memory
// and each request's server work stay bounded however many records the
// unit writes. Requests leave in Put order, and every request but a
// Flush's carries exactly one full buffer, however many goroutines Put at
// once. A Batch is an evalcache.Backend and is safe for concurrent use.
type Batch struct {
	c       *Client
	publish sync.Mutex // held across a publish, so requests leave in Put order

	mu   sync.Mutex
	recs []record
	size int // approximate body bytes of recs
	seq  uint64
	// last maps a key to its latest payload while that payload is buffered
	// or being published, so Get never misses a record in flight.
	last map[string]buffered
}

// buffered is a key's latest payload and the sequence number of its Put.
type buffered struct {
	payload []byte
	seq     uint64
}

// Batch returns an empty write buffer over c.
func (c *Client) Batch() *Batch {
	return &Batch{c: c, last: make(map[string]buffered)}
}

// Get returns the latest buffered payload for key, else the client's.
func (b *Batch) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	e, ok := b.last[key]
	b.mu.Unlock()
	if ok {
		return e.payload, true
	}
	return b.c.Get(key)
}

// Holds reports whether a record may lie in directory dir: one buffered
// or being published, else (see Client.Holds) one on the coordinator.
func (b *Batch) Holds(dir string) bool {
	b.mu.Lock()
	for key := range b.last {
		if strings.HasPrefix(key, dir) && strings.LastIndexByte(key, '/') == len(dir)-1 {
			b.mu.Unlock()
			return true
		}
	}
	b.mu.Unlock()
	return b.c.Holds(dir)
}

// recordSize is a record's approximate share of a batch body.
func recordSize(r record) int { return len(r.Key) + len(r.Payload) + framing }

// Put buffers payload under key, and publishes one full buffer once it
// holds maxBatchRecords records or flushBytes of body. The caller must not
// modify payload afterwards.
func (b *Batch) Put(key string, payload []byte) {
	b.mu.Lock()
	b.seq++
	b.last[key] = buffered{payload, b.seq}
	b.recs = append(b.recs, record{key, payload})
	b.size += recordSize(b.recs[len(b.recs)-1])
	full := b.fullLocked() > 0
	b.mu.Unlock()
	if full {
		b.publishFull()
	}
}

// fullLocked returns how many leading buffered records make one full
// buffer — maxBatchRecords records, or fewer reaching flushBytes of body —
// and 0 while the buffer is not full. Callers hold mu.
func (b *Batch) fullLocked() int {
	if len(b.recs) < maxBatchRecords && b.size < flushBytes {
		return 0
	}
	size := 0
	for i, r := range b.recs {
		if size += recordSize(r); i+1 == maxBatchRecords || size >= flushBytes {
			return i + 1
		}
	}
	return len(b.recs)
}

// publishFull publishes exactly one full buffer, leaving the records Put
// after it buffered; if a racing Put's publish has already emptied the
// buffer below full, it publishes nothing. So concurrent Puts past one
// buffer cannot make a request carry a full buffer plus a straggler,
// which putBatch would cut into a full request and a one-record one.
func (b *Batch) publishFull() {
	b.publish.Lock()
	defer b.publish.Unlock()
	b.mu.Lock()
	n := b.fullLocked()
	if n == 0 {
		b.mu.Unlock()
		return
	}
	recs := b.recs[:n:n]
	b.recs = slices.Clone(b.recs[n:])
	for _, r := range recs {
		b.size -= recordSize(r)
	}
	upto := b.seq - uint64(len(b.recs))
	b.mu.Unlock()
	b.send(recs, upto)
}

// Flush publishes every buffered record in Put order and empties the
// buffer. Like Put, it is best-effort: failures land in the client's
// Stats.PutErrors.
func (b *Batch) Flush() {
	b.publish.Lock()
	defer b.publish.Unlock()
	b.mu.Lock()
	recs, upto := b.recs, b.seq
	b.recs, b.size = nil, 0
	b.mu.Unlock()
	b.send(recs, upto)
}

// send publishes recs, whose last Put had sequence number upto, and then
// stops answering Gets from the buffer for every key whose latest Put is
// among them. Callers hold publish.
func (b *Batch) send(recs []record, upto uint64) {
	if len(recs) == 0 {
		return
	}
	b.c.putBatch(recs)
	b.mu.Lock()
	for _, r := range recs {
		if e, ok := b.last[r.Key]; ok && e.seq <= upto {
			delete(b.last, r.Key)
		}
	}
	b.mu.Unlock()
}

// isResponseFailure distinguishes "the endpoint answered but misbehaved"
// (counted as corruption, like the old non-404 accounting) from pure
// transport failure or a breaker short-circuit (plain misses).
func isResponseFailure(err error) bool {
	if errors.Is(err, resilience.ErrCircuitOpen) {
		return false
	}
	var se *resilience.StatusError
	return errors.As(err, &se) || errors.Is(err, errBadPayload)
}

// Stats snapshots the client-side traffic counters; Corrupt counts
// responses that arrived but could not be used (server errors, oversized
// bodies) — plain 404 misses, transport failures, and breaker
// short-circuits are not corruption.
func (c *Client) Stats() store.Stats {
	return store.Stats{
		Gets:      c.gets.Load(),
		Hits:      c.hits.Load(),
		Puts:      c.puts.Load(),
		Corrupt:   c.corrupt.Load(),
		PutErrors: c.putErrors.Load(),
	}
}

// Resilience snapshots the retry and breaker counters.
func (c *Client) Resilience() ResilienceStats {
	return ResilienceStats{
		Retry:   c.Retryer().Stats(),
		Breaker: c.Breaker().Stats(),
	}
}

// Store is what Handler serves: a record store that reads one key, says
// whether any record lies in a directory, and lands a batch of records with
// one write, as *store.Store does.
type Store interface {
	Get(key string) ([]byte, bool)
	Holds(dir string) bool
	PutBatch(recs iter.Seq2[string, []byte])
}

// Handler serves st over the /v1/store/ routes the Client speaks:
// GET /v1/store/{key} answers 200 with the raw payload or 404 for any miss
// (including server-side corruption — the disk store already refuses to
// serve bad records); GET /v1/store/?dir=<dir> answers 200 when st holds a
// record in dir, 204 when it holds none, and 400 for a dir that is empty or
// does not end in '/'; PUT /v1/store/ takes a batch body — a JSON array of
// {"key", "payload"} records — and answers 204 once PutBatch has taken
// every record, or 400, having stored nothing, for a body that is not a
// non-empty batch of at most maxBatchRecords valid records within the
// byte caps. A nil st (coordinator started without -store) answers 503 so
// workers degrade to local recomputation instead of silently thinking
// records persisted.
func Handler(st Store) http.Handler {
	return newHandler(st, caps{body: maxBatchBytes, payload: maxPayload, records: maxBatchRecords})
}

// caps are the server's batch limits: body bytes, bytes per payload and
// records per batch.
type caps struct{ body, payload, records int }

// newHandler is Handler with explicit caps (tests shrink them to reach the
// over-cap paths with small inputs).
func newHandler(st Store, lim caps) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathPrefix+"{$}", func(w http.ResponseWriter, r *http.Request) {
		if st == nil {
			http.Error(w, "no store configured", http.StatusServiceUnavailable)
			return
		}
		dir := r.URL.Query().Get("dir")
		if !strings.HasSuffix(dir, "/") {
			http.Error(w, "dir must be a key prefix ending in '/'", http.StatusBadRequest)
			return
		}
		if st.Holds(dir) {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusNoContent)
		}
	})
	mux.HandleFunc("GET "+pathPrefix+"{key...}", func(w http.ResponseWriter, r *http.Request) {
		if st == nil {
			http.Error(w, "no store configured", http.StatusServiceUnavailable)
			return
		}
		data, ok := st.Get(r.PathValue("key"))
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("PUT "+pathPrefix+"{$}", func(w http.ResponseWriter, r *http.Request) {
		if st == nil {
			http.Error(w, "no store configured", http.StatusServiceUnavailable)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, int64(lim.body)))
		if err != nil {
			http.Error(w, "batch too large or unreadable", http.StatusBadRequest)
			return
		}
		recs, err := decodeBatch(body, lim)
		if err != nil {
			http.Error(w, "bad batch: "+err.Error(), http.StatusBadRequest)
			return
		}
		st.PutBatch(func(yield func(string, []byte) bool) {
			for _, rec := range recs {
				if !yield(rec.Key, rec.Payload) {
					return
				}
			}
		})
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// decodeBatch parses and validates a whole batch body before any record
// is written: the body must be one JSON array of one to lim.records
// records, each passing checkRecord.
func decodeBatch(body []byte, lim caps) ([]record, error) {
	var recs []record
	if err := json.Unmarshal(body, &recs); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, errors.New("no records")
	}
	if len(recs) > lim.records {
		return nil, fmt.Errorf("%d records over the %d-record limit", len(recs), lim.records)
	}
	for i, rec := range recs {
		if err := checkRecord(rec.Key, rec.Payload, lim.payload); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return recs, nil
}
