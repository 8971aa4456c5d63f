package httpstore

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine/evalcache"
	"repro/internal/frame"
	"repro/internal/store"
)

// The client is a persistent tier, and the disk store is what the
// handler serves.
var (
	_ evalcache.Backend = (*Client)(nil)
	_ Store             = (*store.Store)(nil)
)

// testBackend mounts a disk store behind the HTTP handler and returns a
// client for it plus the underlying store for corruption surgery.
func testBackend(t *testing.T) (*Client, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(Handler(st))
	t.Cleanup(hs.Close)
	return New(hs.URL, nil), st
}

// TestRoundTripRealKeys pins the escaping contract with the key shapes the
// pipeline actually generates: hashed namespaces with literal '/'
// separators, canonical schedule renderings with spaces/parens/commas, the
// joint '|w[...]' suffix, and a hostile '%' / encoded-slash key.
func TestRoundTripRealKeys(t *testing.T) {
	cl, _ := testBackend(t)
	keys := []string{
		"o/0123456789abcdef0123456789abcdef/(3, 2, 3)",
		"o/0123456789abcdef0123456789abcdef/(3, 2, 3)|w[2 1 1]",
		"r/fedcba9876543210fedcba9876543210",
		"served/design/v1/b=tiny|(1, 1, 1)",
		"served/table/v1/IV|b=tiny|m=4|tol=3f847ae147ae147b",
		"odd % key/with%2Fencoded/and spaces",
	}
	for i, key := range keys {
		payload := []byte(fmt.Sprintf(`{"i":%d}`, i))
		if _, ok := cl.Get(key); ok {
			t.Fatalf("Get(%q) before Put reported a hit", key)
		}
		cl.Put(key, payload)
		got, ok := cl.Get(key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("round trip %q: ok=%v payload=%s", key, ok, got)
		}
	}
	// Distinct keys must not alias through escaping.
	for i, key := range keys {
		got, ok := cl.Get(key)
		if !ok || !bytes.Equal(got, []byte(fmt.Sprintf(`{"i":%d}`, i))) {
			t.Fatalf("key %q aliased: payload=%s", key, got)
		}
	}
	st := cl.Stats()
	if st.PutErrors != 0 || st.Corrupt != 0 {
		t.Fatalf("clean round trips recorded failures: %+v", st)
	}
	if st.Hits != int64(2*len(keys)) {
		t.Fatalf("hits = %d, want %d", st.Hits, 2*len(keys))
	}
}

// onlySegment returns the path and bytes of the coordinator store's one
// segment file, which holds the one record a test wrote: one frame.
func onlySegment(t *testing.T, st *store.Store) (string, []byte) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(st.Root(), "*.seg"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("store holds segments %v (err %v), want exactly 1", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return paths[0], data
}

// reframe rewrites a segment's one frame with an edited body and a valid
// CRC, so only the record-level checks can catch the edit. The body is
// version | uvarint key length | key | sha256(payload) | payload.
func reframe(t *testing.T, path string, data []byte, edit func(body []byte)) {
	t.Helper()
	edit(data[frame.HeaderLen:])
	frame.Seal(data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptRecordReadsAsMissOverHTTP reruns the disk store's corruption
// table through the HTTP backend: every damaged record must read as a plain
// miss at the worker, never as a wrong payload, and a re-Put through the
// client heals it — the cluster-wide version of the store's degrade
// contract.
func TestCorruptRecordReadsAsMissOverHTTP(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, st *store.Store)
	}{
		{"garbage", func(t *testing.T, st *store.Store) {
			path, data := onlySegment(t, st)
			if err := os.WriteFile(path, bytes.Repeat([]byte("\x00\xff"), len(data)/2), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, st *store.Store) {
			path, data := onlySegment(t, st)
			if err := os.Truncate(path, int64(len(data)/2)); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, st *store.Store) {
			path, _ := onlySegment(t, st)
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-mismatch", func(t *testing.T, st *store.Store) {
			path, data := onlySegment(t, st)
			reframe(t, path, data, func(body []byte) { body[0] = store.Version + 1 })
		}},
		{"key-mismatch", func(t *testing.T, st *store.Store) {
			path, data := onlySegment(t, st)
			reframe(t, path, data, func(body []byte) {
				keyLen := int(body[1]) // a one-byte uvarint for keys under 128 bytes
				body[1+keyLen] ^= 0x01
			})
		}},
		{"deleted", func(t *testing.T, st *store.Store) {
			path, _ := onlySegment(t, st)
			st.Close() // the store's descriptors go, so the file is really gone
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, st := testBackend(t)
			key := "o/deadbeef/victim-" + tc.name
			cl.Put(key, []byte(`{"x":1}`))
			tc.corrupt(t, st)
			if data, ok := cl.Get(key); ok {
				t.Fatalf("corrupt record served over HTTP as a hit: %s", data)
			}
			cl.Put(key, []byte(`{"x":2}`))
			got, ok := cl.Get(key)
			if !ok || !bytes.Equal(got, []byte(`{"x":2}`)) {
				t.Fatalf("re-Put did not heal over HTTP: ok=%v payload=%s", ok, got)
			}
		})
	}
}

// TestUnreachableCoordinatorDegrades pins the offline contract: with no
// coordinator listening, every Get is a miss and every Put a counted
// error — no panics, no wedging, the worker just runs cold.
func TestUnreachableCoordinatorDegrades(t *testing.T) {
	hs := httptest.NewServer(Handler(nil))
	hs.Close() // immediately: nothing is listening
	cl := New(hs.URL, nil)
	if _, ok := cl.Get("any"); ok {
		t.Fatal("Get against a dead coordinator reported a hit")
	}
	cl.Put("any", []byte(`{"x":1}`))
	st := cl.Stats()
	if st.Hits != 0 || st.PutErrors != 1 {
		t.Fatalf("dead-coordinator stats %+v, want 0 hits and 1 put error", st)
	}
}

// TestNoStoreConfigured pins the 503 path: a coordinator running without
// -store refuses store traffic explicitly, and the client degrades to
// miss/put-error.
func TestNoStoreConfigured(t *testing.T) {
	hs := httptest.NewServer(Handler(nil))
	defer hs.Close()
	cl := New(hs.URL, nil)
	if _, ok := cl.Get("k"); ok {
		t.Fatal("storeless coordinator served a hit")
	}
	cl.Put("k", []byte(`{"x":1}`))
	st := cl.Stats()
	if st.PutErrors != 1 {
		t.Fatalf("storeless Put not counted as error: %+v", st)
	}
	if st.Corrupt != 1 {
		t.Fatalf("storeless Get (503) not counted distinct from 404: %+v", st)
	}
}

// TestHandlerRejectsBadWrites pins the write guards end to end: a record
// the handler would refuse (here an empty payload) is refused by the
// client without traffic, counted as a put error, and never reaches the
// disk store. TestMalformedBatchLeavesStoreUntouched drives the handler's
// own checks.
func TestHandlerRejectsBadWrites(t *testing.T) {
	cl, st := testBackend(t)
	cl.Put("empty-payload", nil)
	if s := cl.Stats(); s.PutErrors != 1 {
		t.Fatalf("empty payload accepted: %+v", s)
	}
	if n := freshLen(t, st); n != 0 {
		t.Fatalf("bad write reached the disk store: %d records", n)
	}
}

// freshLen counts the records in st's directory through a newly opened
// handle, whose startup scan sees every segment.
func freshLen(t *testing.T, st *store.Store) int64 {
	t.Helper()
	h, err := store.Open(st.Root())
	if err != nil {
		t.Fatal(err)
	}
	return h.ApproxLen()
}
