package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServedShedsOnDeepQueue pins load shedding: with -max-queue set and
// the executor queue reading deeper than the bound, compute requests are
// refused with 429 + Retry-After before touching the engine, the shed is
// counted on /statsz, and a drained queue readmits traffic.
func TestServedShedsOnDeepQueue(t *testing.T) {
	s, hs := testServer(t, "")
	s.maxQueue = 4
	depth := int64(10)
	s.queueDepth = func() int64 { return depth }

	resp, err := http.Get(hs.URL + "/v1/design?schedule=3,2,3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("deep-queue design status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// Observability must survive overload: /statsz is outside the envelope
	// and reports the shed.
	var stats struct {
		Resilience struct {
			Shed     int64 `json:"shed"`
			MaxQueue int   `json:"max_queue"`
		} `json:"resilience"`
	}
	if code := getJSON(t, hs.URL+"/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz under overload: %d", code)
	}
	if stats.Resilience.Shed != 1 || stats.Resilience.MaxQueue != 4 {
		t.Fatalf("resilience gauges %+v", stats.Resilience)
	}

	// Queue drains: the same request computes normally.
	depth = 0
	if code := getJSON(t, hs.URL+"/v1/design?schedule=3,2,3", nil); code != http.StatusOK {
		t.Fatalf("post-drain design status %d", code)
	}
}

// TestComputeDeadlineBuffersOrDegrades unit-tests the compute envelope: a
// handler that beats the deadline flushes its buffered response intact
// (status, headers, body); one that outlives it yields 503 + Retry-After
// with the timeout counted, while the handler finishes harmlessly into the
// dropped buffer.
func TestComputeDeadlineBuffersOrDegrades(t *testing.T) {
	s, _ := testServer(t, "")
	s.reqTimeout = 50 * time.Millisecond

	fast := s.compute(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Probe", "yes")
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("steeped"))
	})
	rec := httptest.NewRecorder()
	fast(rec, httptest.NewRequest(http.MethodGet, "/v1/design", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "steeped" || rec.Header().Get("X-Probe") != "yes" {
		t.Fatalf("fast handler not flushed intact: code %d body %q headers %v", rec.Code, rec.Body.String(), rec.Header())
	}

	release := make(chan struct{})
	slow := s.compute(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write([]byte("too late"))
	})
	rec = httptest.NewRecorder()
	start := time.Now()
	slow(rec, httptest.NewRequest(http.MethodGet, "/v1/sweep", nil))
	close(release)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("slow handler status %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("timeout response missing Retry-After")
	}
	if strings.Contains(rec.Body.String(), "too late") {
		t.Fatalf("timed-out handler's bytes leaked into the response: %q", rec.Body.String())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline response took %v", elapsed)
	}
	if got := s.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts gauge %d, want 1", got)
	}
}

// TestServedReadyz pins readiness: memory-only mode is always ready,
// store-backed mode proves a sequence-numbered write round-trips, and
// repeated probes rewrite one record instead of growing the store.
func TestServedReadyz(t *testing.T) {
	_, memHS := testServer(t, "")
	var memBody struct {
		Ready bool `json:"ready"`
		Store bool `json:"store"`
	}
	if code := getJSON(t, memHS.URL+"/readyz", &memBody); code != http.StatusOK {
		t.Fatalf("memory-only readyz status %d", code)
	}
	if !memBody.Ready || memBody.Store {
		t.Fatalf("memory-only readyz body %+v", memBody)
	}

	dir := t.TempDir()
	s, hs := testServer(t, dir)
	s.st.Put("served/test/seed", []byte(`{"seed":1}`))
	segBytes := func() int64 {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, seg := range segs {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}
	bytesBefore, lenBefore := segBytes(), freshLen(t, s.st)
	if bytesBefore == 0 {
		t.Fatal("seed record left no segment bytes")
	}
	var first, second struct {
		Ready bool  `json:"ready"`
		Probe int64 `json:"probe"`
	}
	if code := getJSON(t, hs.URL+"/readyz", &first); code != http.StatusOK || !first.Ready {
		t.Fatalf("store readyz: code %d body %+v", code, first)
	}
	if code := getJSON(t, hs.URL+"/readyz", &second); code != http.StatusOK || !second.Ready {
		t.Fatalf("store readyz (2nd): code %d body %+v", code, second)
	}
	if second.Probe != first.Probe+1 {
		t.Fatalf("probe sequence %d then %d; want consecutive", first.Probe, second.Probe)
	}
	if got := segBytes(); got != bytesBefore {
		t.Fatalf("repeated probes grew the segments: %d → %d bytes", bytesBefore, got)
	}
	if got := freshLen(t, s.st); got != lenBefore {
		t.Fatalf("repeated probes grew the store: %d → %d records", lenBefore, got)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.probe")); len(left) != 0 {
		t.Fatalf("probes left files behind: %v", left)
	}

	// A store directory that is gone takes no writes: not ready.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, hs.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz without a store directory: code %d, want 503", code)
	}
}

// TestServedStatszResilienceGauges pins the /statsz additions: the
// resilience block is always present with the configured bounds, and the
// readyz probe counter feeds it.
func TestServedStatszResilienceGauges(t *testing.T) {
	s, hs := testServer(t, t.TempDir())
	s.maxQueue = 7
	s.reqTimeout = 1500 * time.Millisecond
	getJSON(t, hs.URL+"/readyz", nil)

	var stats struct {
		Resilience struct {
			Shed             int64 `json:"shed"`
			Timeouts         int64 `json:"timeouts"`
			MaxQueue         int   `json:"max_queue"`
			RequestTimeoutMS int64 `json:"request_timeout_ms"`
			ReadyProbes      int64 `json:"ready_probes"`
		} `json:"resilience"`
	}
	if code := getJSON(t, hs.URL+"/statsz", &stats); code != http.StatusOK {
		t.Fatalf("statsz status %d", code)
	}
	r := stats.Resilience
	if r.MaxQueue != 7 || r.RequestTimeoutMS != 1500 || r.ReadyProbes != 1 || r.Shed != 0 || r.Timeouts != 0 {
		t.Fatalf("resilience gauges %+v", r)
	}
}
