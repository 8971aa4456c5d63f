package httpstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"iter"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// memBackend is an in-memory Store that also logs every Put key in
// arrival order.
type memBackend struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts []string
}

func newMemBackend() *memBackend { return &memBackend{m: make(map[string][]byte)} }

func (b *memBackend) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.m[key]
	return data, ok
}

func (b *memBackend) Put(key string, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append([]byte(nil), payload...)
	b.puts = append(b.puts, key)
}

func (b *memBackend) Holds(dir string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for key := range b.m {
		if strings.HasPrefix(key, dir) && strings.LastIndexByte(key, '/') == len(dir)-1 {
			return true
		}
	}
	return false
}

func (b *memBackend) PutBatch(recs iter.Seq2[string, []byte]) {
	for key, payload := range recs {
		b.Put(key, payload)
	}
}

// putBody sends body as a batch write straight to h and returns the status.
func putBody(h http.Handler, path string, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, path, bytes.NewReader(body)))
	return rec.Code
}

// TestMalformedBatchLeavesStoreUntouched pins validate-then-apply: every
// malformed batch is refused with 400 and writes nothing — not even the
// valid records ahead of the bad one — into a real disk store.
func TestMalformedBatchLeavesStoreUntouched(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(st)
	good := `{"key":"o/a","payload":{"x":1}}`
	huge := `{"key":"o/big","payload":"` + strings.Repeat("x", maxPayload) + `"}`
	bodies := map[string]string{
		"empty body":       ``,
		"not json":         `{ rot`,
		"truncated":        `[` + good + `,{"key":"o/b","payl`,
		"trailing garbage": `[` + good + `] x`,
		"object not array": good,
		"no records":       `[]`,
		"null":             `null`,
		"null record":      `[` + good + `,null]`,
		"empty key":        `[` + good + `,{"key":"","payload":{"x":2}}]`,
		"missing payload":  `[` + good + `,{"key":"o/b"}]`,
		"key not a string": `[` + good + `,{"key":7,"payload":{"x":2}}]`,
		"payload too big":  `[` + good + `,` + huge + `]`,
		"body over cap":    `[` + good + strings.Repeat(`,`+huge[:len(huge)-len(`"}`)/2]+`"}`, 4) + `]`,
		"too many records": `[` + good + strings.Repeat(`,`+good, maxBatchRecords) + `]`,
	}
	for name, body := range bodies {
		if code := putBody(h, pathPrefix, []byte(body)); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if n := freshLen(t, st); n != 0 {
		t.Fatalf("malformed batches wrote %d record(s)", n)
	}
	if s := st.Stats(); s.Puts != 0 {
		t.Fatalf("malformed batches reached Put: %+v", s)
	}
	// The per-key write route is gone: PUT carries batches only.
	if code := putBody(h, pathPrefix+"o/a", []byte(`{"x":1}`)); code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT to a record key: status %d, want 405", code)
	}
}

// TestBatchAppliesInBodyOrder pins the accepted path: records land in body
// order, so a duplicate key ends holding its last payload.
func TestBatchAppliesInBodyOrder(t *testing.T) {
	be := newMemBackend()
	body := `[{"key":"o/a","payload":{"v":1}},{"key":"o/b","payload":[1, 2]},{"key":"o/a","payload":{"v":2}},{"key":"r/c","payload":"done"}]`
	if code := putBody(Handler(be), pathPrefix, []byte(body)); code != http.StatusNoContent {
		t.Fatalf("status %d, want 204", code)
	}
	if got := strings.Join(be.puts, " "); got != "o/a o/b o/a r/c" {
		t.Fatalf("Put order %q", got)
	}
	for key, want := range map[string]string{"o/a": `{"v":2}`, "o/b": `[1, 2]`, "r/c": `"done"`} {
		if got, _ := be.Get(key); string(got) != want {
			t.Fatalf("%s = %s, want %s", key, got, want)
		}
	}
}

// countingServer mounts h behind a test server that counts requests by
// method.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var gets, puts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			puts.Add(1)
		} else {
			gets.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &gets, &puts
}

// TestBatchReadYourWritesOneRequest pins the buffer: buffered keys answer
// without traffic, unbuffered ones fall through to the coordinator, and
// Flush publishes every record in one request, in Put order.
func TestBatchReadYourWritesOneRequest(t *testing.T) {
	be := newMemBackend()
	be.Put("o/warm", []byte(`{"w":1}`))
	be.puts = nil
	srv, gets, puts := countingServer(t, Handler(be))
	cl := New(srv.URL, nil)
	b := cl.Batch()
	b.Put("o/a", []byte(`{"a":1}`))
	b.Put("o/b", []byte(`{"b":1}`))
	b.Put("o/a", []byte(`{"a":2}`))
	b.Put("r/ckpt", []byte(`{"done":true}`))
	if data, ok := b.Get("o/a"); !ok || string(data) != `{"a":2}` {
		t.Fatalf("buffered Get = %s, %v; want the latest buffered payload", data, ok)
	}
	if gets.Load() != 0 || puts.Load() != 0 {
		t.Fatalf("buffered traffic: %d GET(s), %d PUT(s); want none", gets.Load(), puts.Load())
	}
	if data, ok := b.Get("o/warm"); !ok || string(data) != `{"w":1}` {
		t.Fatalf("fall-through Get = %s, %v", data, ok)
	}
	if _, ok := b.Get("o/cold"); ok {
		t.Fatal("absent key read as a hit")
	}
	if gets.Load() != 2 {
		t.Fatalf("%d GET(s), want the 2 fall-throughs", gets.Load())
	}
	b.Flush()
	if puts.Load() != 1 {
		t.Fatalf("Flush sent %d requests, want 1", puts.Load())
	}
	if got := strings.Join(be.puts, " "); got != "o/a o/b o/a r/ckpt" {
		t.Fatalf("server Put order %q", got)
	}
	if data, ok := cl.Get("o/a"); !ok || string(data) != `{"a":2}` {
		t.Fatalf("flushed record = %s, %v", data, ok)
	}
	b.Flush() // empty: no request
	if puts.Load() != 1 {
		t.Fatalf("empty Flush sent a request (%d total)", puts.Load())
	}
	if s := cl.Stats(); s.Puts != 4 || s.PutErrors != 0 {
		t.Fatalf("stats %+v, want 4 records, no errors", s)
	}
}

// TestBatchConcurrentUse drives one Batch from several goroutines, as a
// scenario's parallel exact pass does: each reads back its own writes,
// and one Flush publishes every record.
func TestBatchConcurrentUse(t *testing.T) {
	be := newMemBackend()
	srv, _, puts := countingServer(t, Handler(be))
	cl := New(srv.URL, nil)
	b := cl.Batch()
	const workers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key, payload := fmt.Sprintf("o/%d/%d", w, i), []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))
				b.Put(key, payload)
				if got, ok := b.Get(key); !ok || !bytes.Equal(got, payload) {
					t.Errorf("%s read back %s, %v", key, got, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	b.Flush()
	if puts.Load() != 1 || len(be.puts) != workers*each {
		t.Fatalf("%d request(s) landing %d record(s), want 1 landing %d", puts.Load(), len(be.puts), workers*each)
	}
}

// TestBatchSplitsAtFlushBytes pins the client's body cap: a buffer over
// flushBytes goes out in several requests, each under the server's cap,
// and every record lands.
func TestBatchSplitsAtFlushBytes(t *testing.T) {
	be := newMemBackend()
	srv, _, puts := countingServer(t, Handler(be))
	cl := New(srv.URL, nil)
	b := cl.Batch()
	payload := []byte(`"` + strings.Repeat("p", flushBytes/4) + `"`) // three fit a request
	const n = 7
	for i := 0; i < n; i++ {
		b.Put(fmt.Sprintf("o/%d", i), payload)
	}
	b.Flush()
	if got := puts.Load(); got != 3 {
		t.Fatalf("%d requests for %d quarter-cap records, want 3", got, n)
	}
	if s := cl.Stats(); s.Puts != n || s.PutErrors != 0 {
		t.Fatalf("stats %+v", s)
	}
	for i := 0; i < n; i++ {
		if got, ok := be.Get(fmt.Sprintf("o/%d", i)); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("record %d did not land", i)
		}
	}
}

// TestBatchBoundsBuffer drives a Batch far past maxBatchRecords without a
// Flush, as an exhaustive scenario at the job caps does: the buffer never
// holds more than maxBatchRecords records, each full buffer goes out as one
// request as it fills, published records still read back (now from the
// server), and every record lands in Put order. A direct putBatch over the
// cap splits the same way.
func TestBatchBoundsBuffer(t *testing.T) {
	be := newMemBackend()
	srv, _, puts := countingServer(t, Handler(be))
	cl := New(srv.URL, nil)
	b := cl.Batch()
	const n = 3*maxBatchRecords + 10
	payload := []byte(`{"pall_bits":4603681505412688226,"feasible":true}`)
	var want []string
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("o/%d", i)
		b.Put(key, payload)
		want = append(want, key)
		b.mu.Lock()
		held, tracked := len(b.recs), len(b.last)
		b.mu.Unlock()
		if held > maxBatchRecords-1 || tracked > maxBatchRecords-1 {
			t.Fatalf("after %d Puts the buffer holds %d records and tracks %d keys; want under %d",
				i+1, held, tracked, maxBatchRecords)
		}
	}
	if got := puts.Load(); got != 3 {
		t.Fatalf("%d requests while buffering %d records, want 3 full ones", got, n)
	}
	if data, ok := b.Get("o/0"); !ok || !bytes.Equal(data, payload) {
		t.Fatalf("published record reads back %s, %v", data, ok)
	}
	b.Flush()
	if got := puts.Load(); got != 4 {
		t.Fatalf("%d requests after Flush, want 4", got)
	}
	if got, wantOrder := strings.Join(be.puts, " "), strings.Join(want, " "); got != wantOrder {
		t.Fatal("records landed out of Put order")
	}
	if s := cl.Stats(); s.Puts != n || s.PutErrors != 0 {
		t.Fatalf("stats %+v, want %d records, no errors", s, n)
	}

	recs := make([]record, 2*maxBatchRecords+1)
	for i := range recs {
		recs[i] = record{fmt.Sprintf("o/direct/%d", i), payload}
	}
	before := puts.Load()
	cl.putBatch(recs)
	if got := puts.Load() - before; got != 3 {
		t.Fatalf("putBatch of %d records sent %d requests, want 3", len(recs), got)
	}
}

// TestBatchCountsRecords pins the write counters: Stats.Puts counts
// records, not requests; a record the server could never accept is a put
// error without traffic (and without poisoning its batch); and a flush
// that fails counts every record it carried.
func TestBatchCountsRecords(t *testing.T) {
	be := newMemBackend()
	srv, _, puts := countingServer(t, Handler(be))
	cl := New(srv.URL, nil)
	b := cl.Batch()
	b.Put("o/ok", []byte(`{"x":1}`))
	b.Put("", []byte(`{"x":1}`))        // empty key
	b.Put("o/empty", nil)               // empty payload
	b.Put("o/notjson", []byte(`{ rot`)) // not JSON
	b.Put("o/\xff", []byte(`{"x":1}`))  // key JSON cannot carry
	b.Put("o/ok2", []byte(`[1, "two"]`))
	b.Flush()
	if s := cl.Stats(); s.Puts != 6 || s.PutErrors != 4 {
		t.Fatalf("stats %+v, want 6 records, 4 refused", s)
	}
	if puts.Load() != 1 || len(be.puts) != 2 {
		t.Fatalf("%d request(s) landing %d record(s), want 1 landing 2", puts.Load(), len(be.puts))
	}

	dead := httptest.NewServer(Handler(nil))
	dead.Close()
	down := NewWithOptions(dead.URL, fastOptions())
	b = down.Batch()
	for i := 0; i < 3; i++ {
		b.Put(fmt.Sprintf("o/%d", i), []byte(`{"x":1}`))
	}
	b.Flush()
	if s := down.Stats(); s.Puts != 3 || s.PutErrors != 3 {
		t.Fatalf("failed flush stats %+v, want 3 records, 3 errors", s)
	}
}

// Fuzz caps: small enough that the corpus reaches the oversized-payload,
// record-count and over-cap paths with tiny inputs; the checks are the
// production ones.
var fuzzCaps = caps{body: 512, payload: 64, records: 8}

// FuzzStoreBatch feeds arbitrary bodies to the batch handler over an
// in-memory backend. Every body is either refused with 400, having written
// nothing, or applied whole: every record Put in body order, each key
// reading back its last payload byte for byte — and an accepted body must
// have been one the validation rules allow.
func FuzzStoreBatch(f *testing.F) {
	for _, seed := range []string{
		`[{"key":"o/a","payload":{"x":1}}]`,
		`[{"key":"o/a","payload":{"x":1}},{"key":"r/b","payload":[1,2,3]}]`,
		`[{"key":"o/a","payload":1},{"key":"o/a","payload":2}]`,
		`[{"key":"o/a","payload":{"x":1}},{"key":"o/b","payl`,
		`[{"key":"","payload":{"x":1}}]`,
		`[{"key":"o/a"}]`,
		`[{"key":"o/a","payload":"` + strings.Repeat("x", fuzzCaps.payload) + `"}]`,
		`[` + strings.Repeat(`{"key":"o/a","payload":1},`, fuzzCaps.records) + `{"key":"o/b","payload":2}]`,
		`[` + strings.Repeat(`{"key":"o/a","payload":"`+strings.Repeat("y", 40)+`"},`, 9) + `{"key":"o/z","payload":0}]`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		be := newMemBackend()
		code := putBody(newHandler(be, fuzzCaps), pathPrefix, body)
		switch code {
		case http.StatusBadRequest:
			if len(be.puts) != 0 {
				t.Fatalf("refused body wrote %d record(s): %q", len(be.puts), body)
			}
			return
		case http.StatusNoContent:
		default:
			t.Fatalf("status %d for %q", code, body)
		}
		if len(body) > fuzzCaps.body {
			t.Fatalf("accepted a %d-byte body over the %d-byte cap", len(body), fuzzCaps.body)
		}
		var recs []record
		if err := json.Unmarshal(body, &recs); err != nil || len(recs) == 0 {
			t.Fatalf("accepted a body that is no batch (%v): %q", err, body)
		}
		if len(recs) > fuzzCaps.records {
			t.Fatalf("accepted %d records over the %d-record cap", len(recs), fuzzCaps.records)
		}
		if len(be.puts) != len(recs) {
			t.Fatalf("applied %d of %d records", len(be.puts), len(recs))
		}
		last := make(map[string][]byte)
		for i, r := range recs {
			if err := checkRecord(r.Key, r.Payload, fuzzCaps.payload); err != nil {
				t.Fatalf("accepted record %d: %v", i, err)
			}
			if be.puts[i] != r.Key {
				t.Fatalf("record %d applied as %q, want %q (body order)", i, be.puts[i], r.Key)
			}
			last[r.Key] = r.Payload
		}
		for key, want := range last {
			if got, ok := be.Get(key); !ok || !bytes.Equal(got, want) {
				t.Fatalf("%q reads back %q, want %q", key, got, want)
			}
		}
	})
}
