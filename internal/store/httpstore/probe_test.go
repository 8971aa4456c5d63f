package httpstore

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/store"
)

// probe sends GET /v1/store/?<query> straight to h and returns the status.
func probe(h http.Handler, query string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, pathPrefix+"?"+query, nil))
	return rec.Code
}

// TestHoldsProbeRoute pins the probe's rows: 200 for a directory the
// store holds, 204 for one it does not, 400 for a dir that is missing,
// empty or not a directory, and 503 without a store — and the record route
// beside it still reads keys. The client reads the same answers over a
// socket, escaping included.
func TestHoldsProbeRoute(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Put("o/ns/(3, 2, 3)", []byte(`{"x":1}`))
	st.Put("o/a b%/(1, 1, 1)", []byte(`{"x":2}`))
	h := Handler(st)
	for query, want := range map[string]int{
		"dir=o/ns/":            http.StatusOK,
		"dir=o%2Fns%2F":        http.StatusOK,
		"dir=o/empty/":         http.StatusNoContent,
		"dir=o/":               http.StatusNoContent,
		"":                     http.StatusBadRequest,
		"dir=":                 http.StatusBadRequest,
		"dir=o/ns":             http.StatusBadRequest,
		"dir=o/ns/(3,+2,+3)":   http.StatusBadRequest,
		"other=o/ns/":          http.StatusBadRequest,
		"dir=o%2Fa+b%25%2F":    http.StatusOK,
		"dir=o/ns/&dir=o/nil/": http.StatusOK, // the first value counts
	} {
		if got := probe(h, query); got != want {
			t.Errorf("probe %q: status %d, want %d", query, got, want)
		}
	}
	if got := probe(Handler(nil), "dir=o/ns/"); got != http.StatusServiceUnavailable {
		t.Errorf("probe without a store: status %d, want 503", got)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	cl := New(srv.URL, nil)
	if !cl.Holds("o/ns/") || !cl.Holds("o/a b%/") || cl.Holds("o/empty/") {
		t.Fatal("client probe answers differ from the store's")
	}
	if data, ok := cl.Get("o/ns/(3, 2, 3)"); !ok || string(data) != `{"x":1}` {
		t.Fatalf("record route beside the probe: %s, %v", data, ok)
	}
}

// TestClientHoldsFailsSafe pins that only a definite 204 reads as absent:
// a coordinator that keeps failing (500s, through every retry), a client
// whose breaker is open (no request sent at all), a coordinator from
// before the probe (404, never retried) and a refused dir (400) all read
// as present, so the caller reads exactly as it would without the probe.
func TestClientHoldsFailsSafe(t *testing.T) {
	var calls atomic.Int64
	status := atomic.Int64{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(int(status.Load()))
	}))
	defer srv.Close()

	opts := fastOptions()
	cl := NewWithOptions(srv.URL, opts)
	for code, attempts := range map[int]int64{
		http.StatusInternalServerError: int64(opts.Policy.MaxAttempts),
		http.StatusNotFound:            1,
		http.StatusBadRequest:          1,
		http.StatusNoContent:           1,
	} {
		status.Store(int64(code))
		calls.Store(0)
		if got, want := cl.Holds("o/ns/"), code != http.StatusNoContent; got != want {
			t.Errorf("status %d: Holds = %v, want %v", code, got, want)
		}
		if n := calls.Load(); n != attempts {
			t.Errorf("status %d: %d request(s), want %d", code, n, attempts)
		}
	}

	// An open breaker short-circuits the probe to "present" even though the
	// coordinator would now answer 204.
	br := resilience.NewBreaker(1, time.Hour)
	tripped := NewWithOptions(srv.URL, resilience.Options{Policy: resilience.Policy{MaxAttempts: 1}, Breaker: br})
	status.Store(http.StatusInternalServerError)
	if !tripped.Holds("o/ns/") {
		t.Fatal("a failing probe read as absent")
	}
	if br.State() != resilience.Open {
		t.Fatalf("breaker %v after a 500, want open", br.State())
	}
	status.Store(http.StatusNoContent)
	calls.Store(0)
	if !tripped.Holds("o/ns/") || calls.Load() != 0 {
		t.Fatalf("open breaker: Holds sent %d request(s) or read absent", calls.Load())
	}
}

// TestBatchHoldsSeesBuffer pins read-your-writes for the probe: a
// directory holding only buffered records reads as present without a
// request, and one with no buffered record asks the coordinator.
func TestBatchHoldsSeesBuffer(t *testing.T) {
	be := newMemBackend()
	be.Put("o/warm/(1, 1)", []byte(`{"w":1}`))
	srv, gets, _ := countingServer(t, Handler(be))
	b := New(srv.URL, nil).Batch()
	b.Put("o/ns/(3, 2, 3)", []byte(`{"x":1}`))
	b.Put("o/ns/deep/(1, 1)", []byte(`{"x":2}`))
	if !b.Holds("o/ns/") || !b.Holds("o/ns/deep/") {
		t.Fatal("a buffered record's directory read as absent")
	}
	if gets.Load() != 0 {
		t.Fatalf("buffered directories sent %d request(s), want none", gets.Load())
	}
	if !b.Holds("o/warm/") || b.Holds("o/") || b.Holds("o/cold/") {
		t.Fatal("unbuffered directories did not read as the coordinator holds them")
	}
	if gets.Load() != 3 {
		t.Fatalf("%d probe(s), want the 3 fall-throughs", gets.Load())
	}
	b.Flush()
	if !b.Holds("o/ns/") {
		t.Fatal("a published record's directory read as absent")
	}
}

// TestBatchFullPublishCarriesOneBuffer pins the straggler fix
// deterministically: with a publish in progress (the publish lock held),
// several goroutines Put past one full buffer; once it is released, the
// full buffer goes out as exactly one maxBatchRecords request and the
// records Put after it stay buffered, so every request but the last
// (Flush's) carries a full buffer — never a full one followed by a
// one-to-three-record straggler cut from it.
func TestBatchFullPublishCarriesOneBuffer(t *testing.T) {
	be := newMemBackend()
	var mu sync.Mutex
	var sizes []int
	inner := Handler(be)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			body, _ := io.ReadAll(r.Body)
			var recs []json.RawMessage
			json.Unmarshal(body, &recs)
			mu.Lock()
			sizes = append(sizes, len(recs))
			mu.Unlock()
			r.Body = io.NopCloser(strings.NewReader(string(body)))
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	b := New(srv.URL, nil).Batch()

	// Each goroutine Puts a full buffer's worth, so none can finish before
	// the buffer has filled.
	const workers, each = 4, maxBatchRecords
	payload := []byte(`{"pall_bits":4603681505412688226,"feasible":true}`)
	b.publish.Lock()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.Put(fmt.Sprintf("o/%d/%d", w, i), payload)
			}
		}(w)
	}
	// Every goroutine blocks in the Put that found the buffer full: the one
	// that filled it and one more Put from each of the others.
	held := 0
	for deadline := time.Now().Add(10 * time.Second); held < maxBatchRecords+workers-1; {
		if time.Now().After(deadline) {
			b.publish.Unlock()
			t.Fatalf("buffer reached %d records, want %d", held, maxBatchRecords+workers-1)
		}
		time.Sleep(time.Millisecond)
		b.mu.Lock()
		held = len(b.recs)
		b.mu.Unlock()
	}
	b.publish.Unlock()
	wg.Wait()
	b.Flush()

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for i, n := range sizes {
		if i < len(sizes)-1 && n != maxBatchRecords {
			t.Fatalf("requests carried %v records: request %d is not a full buffer", sizes, i)
		}
		total += n
	}
	if total != workers*each || len(be.puts) != workers*each {
		t.Fatalf("requests carried %d records, the store landed %d, want %d", total, len(be.puts), workers*each)
	}
}
