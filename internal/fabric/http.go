package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/resilience"
)

// Wire bodies of the lease protocol. TTLs travel in milliseconds; zero
// means DefaultTTL.
type acquireRequest struct {
	Job    string `json:"job,omitempty"` // empty: any job
	Worker string `json:"worker"`
	TTLMS  int64  `json:"ttl_ms,omitempty"`
}

type shardRequest struct {
	Job    string `json:"job"`
	Shard  int    `json:"shard"`
	Worker string `json:"worker"`
	TTLMS  int64  `json:"ttl_ms,omitempty"`
}

type submitResponse struct {
	Job     string `json:"job"`
	Shards  int    `json:"shards"`
	Created bool   `json:"created"`
}

// Handler mounts the lease protocol:
//
//	POST /v1/shards/jobs       submit a JobSpec → {job, shards, created}
//	GET  /v1/shards/jobs       list job statuses
//	GET  /v1/shards/jobs/{id}  one job status
//	POST /v1/shards/acquire    lease a shard → Lease, or 204 when none
//	POST /v1/shards/heartbeat  renew a lease (409 when lost)
//	POST /v1/shards/complete   mark a shard done
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
	}
	writeErr := func(w http.ResponseWriter, code int, err error) {
		writeJSON(w, code, map[string]string{"error": err.Error()})
	}
	decode := func(w http.ResponseWriter, r *http.Request, v any) bool {
		if err := resilience.DecodeJSON(w, r, v); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
			return false
		}
		return true
	}
	errCode := func(err error) int {
		switch {
		case errors.Is(err, ErrUnknownJob):
			return http.StatusNotFound
		case errors.Is(err, ErrLeaseLost):
			return http.StatusConflict
		case errors.Is(err, ErrJournal):
			// A journal append failed: the transition was refused, nothing
			// was applied. 5xx so retrying clients treat it as transient —
			// a stalled disk heals, a full one pages the operator.
			return http.StatusInternalServerError
		}
		return http.StatusBadRequest
	}

	mux.HandleFunc("POST /v1/shards/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if !decode(w, r, &spec) {
			return
		}
		id, created, err := m.Submit(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		st, _ := m.Status(id)
		writeJSON(w, http.StatusOK, submitResponse{Job: id, Shards: len(st.Shards), Created: created})
	})
	mux.HandleFunc("GET /v1/shards/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": m.Jobs()})
	})
	mux.HandleFunc("GET /v1/shards/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := m.Status(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, ErrUnknownJob)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/shards/acquire", func(w http.ResponseWriter, r *http.Request) {
		var req acquireRequest
		if !decode(w, r, &req) {
			return
		}
		if req.Worker == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("fabric: worker name required"))
			return
		}
		lease, ok := m.Acquire(req.Job, req.Worker, time.Duration(req.TTLMS)*time.Millisecond)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, lease)
	})
	mux.HandleFunc("POST /v1/shards/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req shardRequest
		if !decode(w, r, &req) {
			return
		}
		if err := m.Heartbeat(req.Job, req.Shard, req.Worker, time.Duration(req.TTLMS)*time.Millisecond); err != nil {
			writeErr(w, errCode(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/shards/complete", func(w http.ResponseWriter, r *http.Request) {
		var req shardRequest
		if !decode(w, r, &req) {
			return
		}
		if err := m.Complete(req.Job, req.Shard, req.Worker); err != nil {
			writeErr(w, errCode(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// protocolError carries a manager sentinel together with its HTTP status
// classification: errors.Is still matches ErrUnknownJob/ErrLeaseLost for
// callers, while the retry layer sees a definitive 4xx StatusError and
// neither retries it nor counts it against the breaker.
type protocolError struct {
	sentinel error
	status   *resilience.StatusError
}

func (e *protocolError) Error() string   { return e.sentinel.Error() }
func (e *protocolError) Unwrap() []error { return []error{e.sentinel, e.status} }

// Client speaks the lease protocol against a coordinator through a
// resilience.Endpoint: transient failures (transport errors, 5xx, 429) are
// retried on a seeded-jitter backoff schedule under per-attempt deadlines,
// and a circuit breaker fails calls fast while the coordinator is down.
// Protocol verdicts — ErrUnknownJob (404), ErrLeaseLost (409) — are
// definitive: returned immediately, never retried, never counted against
// the breaker. The zero value is unusable; construct with NewClient or
// NewClientWithOptions.
type Client struct {
	*resilience.Endpoint
}

// NewClient returns a protocol client for the coordinator at baseURL with
// the default resilience envelope. httpClient may be nil for a default.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return NewClientWithOptions(baseURL, resilience.Options{HTTPClient: httpClient})
}

// NewClientWithOptions returns a protocol client with an explicit
// resilience envelope.
func NewClientWithOptions(baseURL string, o resilience.Options) *Client {
	return &Client{resilience.NewEndpoint(baseURL, o)}
}

// call sends body (nil = none) as JSON and decodes a 200 JSON response
// into out (when non-nil), retrying transient failures. It returns the
// final status; protocol statuses map back to the manager's sentinels.
func (c *Client) call(method, path string, body, out any) (int, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	var code int
	err := c.Do(method, path, data, func(resp *http.Response) error {
		code = resp.StatusCode
		switch resp.StatusCode {
		case http.StatusOK:
			if out != nil {
				return json.NewDecoder(resp.Body).Decode(out)
			}
			return nil
		case http.StatusNoContent:
			return nil
		case http.StatusNotFound:
			return &protocolError{sentinel: ErrUnknownJob, status: resilience.NewStatusError(resp.StatusCode, "")}
		case http.StatusConflict:
			return &protocolError{sentinel: ErrLeaseLost, status: resilience.NewStatusError(resp.StatusCode, "")}
		}
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = resp.Status
		}
		return fmt.Errorf("fabric: %s: %s: %w", path, e.Error,
			resilience.NewStatusError(resp.StatusCode, resp.Header.Get("Retry-After")))
	})
	return code, err
}

// Submit registers spec and returns its job ID. Safe to retry: job IDs are
// content-hashed, so a resubmission after a lost response is idempotent.
func (c *Client) Submit(spec JobSpec) (string, error) {
	var resp submitResponse
	if _, err := c.call(http.MethodPost, "/v1/shards/jobs", spec, &resp); err != nil {
		return "", err
	}
	return resp.Job, nil
}

// Jobs fetches every job's snapshot in submission order.
func (c *Client) Jobs() ([]JobStatus, error) {
	var body struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if _, err := c.call(http.MethodGet, "/v1/shards/jobs", nil, &body); err != nil {
		return nil, err
	}
	return body.Jobs, nil
}

// Status fetches one job's snapshot.
func (c *Client) Status(jobID string) (JobStatus, error) {
	var st JobStatus
	if _, err := c.call(http.MethodGet, "/v1/shards/jobs/"+jobID, nil, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Acquire leases a shard of jobID ("" = any job). ok=false means the
// coordinator currently has no available work. Safe to retry: a lease
// granted on an attempt whose response was lost simply waits out its TTL
// and is re-stolen.
func (c *Client) Acquire(jobID, worker string, ttl time.Duration) (Lease, bool, error) {
	var lease Lease
	code, err := c.call(http.MethodPost, "/v1/shards/acquire",
		acquireRequest{Job: jobID, Worker: worker, TTLMS: ttl.Milliseconds()}, &lease)
	if err != nil {
		return Lease{}, false, err
	}
	return lease, code == http.StatusOK, nil
}

// Heartbeat renews a lease; ErrLeaseLost means the shard was stolen or
// finished elsewhere and the worker should abandon it.
func (c *Client) Heartbeat(l Lease, worker string, ttl time.Duration) error {
	_, err := c.call(http.MethodPost, "/v1/shards/heartbeat",
		shardRequest{Job: l.Job, Shard: l.Shard, Worker: worker, TTLMS: ttl.Milliseconds()}, nil)
	return err
}

// Complete marks the leased shard done (idempotent server-side).
func (c *Client) Complete(l Lease, worker string) error {
	_, err := c.call(http.MethodPost, "/v1/shards/complete",
		shardRequest{Job: l.Job, Shard: l.Shard, Worker: worker}, nil)
	return err
}
