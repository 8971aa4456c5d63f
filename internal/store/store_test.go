package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/frame"
)

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get of absent key reported a hit")
	}
	payload := []byte(`{"pall_bits":123,"feasible":true}`)
	s.Put("k1", payload)
	got, ok := s.Get("k1")
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %s want %s", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Gets != 2 || st.Puts != 1 || st.Corrupt != 0 || st.PutErrors != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if got := s.ApproxLen(); got != 1 {
		t.Fatalf("ApproxLen = %d, want 1", got)
	}
}

// segments lists a store's segment files, oldest first.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// recordBody is the frame body Put writes for key and compact payload.
func recordBody(key string, payload []byte) []byte {
	body := binary.AppendUvarint([]byte{Version}, uint64(len(key)))
	body = append(body, key...)
	sum := sha256.Sum256(payload)
	body = append(body, sum[:]...)
	return append(body, payload...)
}

// TestPutRejectsEmptyPayload: the store stores payloads as given, but a
// record needs at least one payload byte to read back, so an empty payload
// is a put error that writes nothing rather than a frame every later Get
// and Scrub would count as corrupt.
func TestPutRejectsEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("empty", nil)
	s.PutBatch(func(yield func(string, []byte) bool) {
		_ = yield("empty", []byte{}) && yield("kept", []byte(`1`))
	})
	if st := s.Stats(); st.PutErrors != 2 {
		t.Fatalf("PutErrors = %d, want 2", st.PutErrors)
	}
	if _, ok := s.Get("empty"); ok {
		t.Fatal("empty payload read back")
	}
	if got, ok := s.Get("kept"); !ok || string(got) != "1" {
		t.Fatalf("the batch's other record: %q, %v", got, ok)
	}
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("%d corrupt record(s) after rejected puts", st.Corrupt)
	}
}

// TestSegmentLayout pins the on-disk format: a handle's first Put creates
// its own segment holding exactly the documented frame, and a second
// handle's Put lands in a second segment that the first handle's records
// never share.
func TestSegmentLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs := segments(t, dir); len(segs) != 0 {
		t.Fatalf("Open created segment(s) %v before any Put", segs)
	}
	s.Put("layout-key", []byte(`{"x": 1}`))
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("one Put left %d segment(s), want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := frame.Append(nil, recordBody("layout-key", []byte(`{"x": 1}`))); !bytes.Equal(data, want) {
		t.Fatalf("segment bytes\n got %x\nwant %x", data, want)
	}

	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	other.Put("other-key", []byte(`2`))
	if got := segments(t, dir); len(got) != 2 || got[0] != segs[0] {
		t.Fatalf("second handle's Put: segments %v, want %s plus a new one", got, segs[0])
	}
	if data2, _ := os.ReadFile(segs[0]); !bytes.Equal(data2, data) {
		t.Fatal("second handle appended to the first handle's segment")
	}
}

// frameOf returns the segment file, offset and length of the frame the
// handle's index holds for key.
func frameOf(t *testing.T, s *Store, key string) (string, int64, int) {
	t.Helper()
	g, l, ok := s.lookup(keyHash(key))
	if !ok {
		t.Fatalf("key %q is not indexed", key)
	}
	data, err := os.ReadFile(g.path)
	if err != nil {
		t.Fatal(err)
	}
	return g.path, l.off(), frame.HeaderLen + int(binary.LittleEndian.Uint32(data[l.off():]))
}

// reframe rewrites the frame at off in place: mutate edits its body, and
// the frame gets a valid CRC again, so only the record-level checks can
// catch the change. The body must keep its length.
func reframe(t *testing.T, path string, off int64, n int, mutate func(body []byte)) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	mutate(buf[frame.HeaderLen:])
	frame.Seal(buf)
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
}

// writeAt overwrites bytes of a file in place.
func writeAt(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionReadsAsMiss(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string, off int64, n int)
	}{
		{"garbage", func(t *testing.T, path string, off int64, n int) {
			writeAt(t, path, off, bytes.Repeat([]byte("\x00\xff"), n/2))
		}},
		{"truncated", func(t *testing.T, path string, off int64, n int) {
			if err := os.Truncate(path, off+int64(n)/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, path string, off int64, n int) {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-mismatch", func(t *testing.T, path string, off int64, n int) {
			reframe(t, path, off, n, func(body []byte) { body[0] = Version + 1 })
		}},
		{"key-mismatch", func(t *testing.T, path string, off int64, n int) {
			// A valid record of another key, filed where the index expects
			// this one.
			reframe(t, path, off, n, func(body []byte) {
				key, _, payload, _ := decodeRecord(body)
				copy(body, recordBody(string(key[:len(key)-1])+"!", payload))
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			key := "victim-" + tc.name
			s.Put(key, []byte(`{"x":1}`))
			path, off, n := frameOf(t, s, key)
			tc.corrupt(t, path, off, n)
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupt record served as a hit")
			}
			if st := s.Stats(); st.Corrupt != 1 {
				t.Fatalf("Corrupt = %d, want 1 (stats %+v)", st.Corrupt, st)
			}
			// The degrade path: recompute and overwrite heals the record.
			s.Put(key, []byte(`{"x":2}`))
			got, ok := s.Get(key)
			if !ok || !bytes.Equal(got, []byte(`{"x":2}`)) {
				t.Fatalf("re-Put did not heal the record: ok=%v payload=%s", ok, got)
			}
		})
	}
}

// TestHashCollisionReadsAsPlainMiss pins the index's collision rule: a
// frame holding another key whose index hash equals the wanted key's is
// not this key's record — a plain miss, not corruption.
func TestHashCollisionReadsAsPlainMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put("stored", []byte(`{"x":1}`))
	_, l, _ := s.lookup(keyHash("stored"))
	// Forge the collision: index "wanted" at the frame of "stored".
	s.mu.Lock()
	s.index[keyHash("wanted")] = l
	s.mu.Unlock()
	g, _, _ := s.lookup(keyHash("wanted"))
	if _, v := g.read(l, "wanted", keyHash("stored")); v != recordMiss {
		t.Fatalf("colliding key read as verdict %d, want a plain miss", v)
	}
	if _, ok := s.Get("wanted"); ok {
		t.Fatal("another key's frame served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		// Without a real collision the hashes differ: the frame is filed
		// under the wrong key, which is corruption.
		t.Fatalf("Corrupt = %d for a misfiled frame, want 1", st.Corrupt)
	}
}

func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	// Two independent Store handles on one directory emulate separate
	// processes (e.g. two sweep shards) sharing a store.
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		keys    = 32
	)
	payload := func(k int) []byte { return []byte(fmt.Sprintf(`{"k":%d}`, k)) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		st := a
		if w%2 == 1 {
			st = b
		}
		wg.Add(1)
		go func(st *Store, w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				// Deterministic evaluations: every writer of a key writes
				// the same payload, like racing sweep shards would. Odd keys
				// are written by b's writers only, so a must find them in
				// b's segment.
				if k%2 == 1 && st == a {
					continue
				}
				st.Put(fmt.Sprintf("key-%d", k), payload(k))
				if data, ok := st.Get(fmt.Sprintf("key-%d", k)); ok {
					if !bytes.Equal(data, payload(k)) {
						t.Errorf("writer %d read torn/foreign record for key-%d: %s", w, k, data)
					}
				}
			}
		}(st, w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		data, ok := a.Get(fmt.Sprintf("key-%d", k))
		if !ok || !bytes.Equal(data, payload(k)) {
			t.Fatalf("key-%d not intact after concurrent writers: ok=%v payload=%s", k, ok, data)
		}
	}
	// A record another live handle appends after a's last rescan is found
	// on a's next miss.
	b.Put("late", []byte(`{"late":true}`))
	if data, ok := a.Get("late"); !ok || !bytes.Equal(data, []byte(`{"late":true}`)) {
		t.Fatalf("a missed b's later append: ok=%v payload=%s", ok, data)
	}
	if st := a.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent writers produced %d corrupt reads", st.Corrupt)
	}
	// Nothing but the two writers' segments, each a sequence of whole
	// frames to a clean end, and the registry announcing them.
	segs := segments(t, dir)
	if len(segs) != 2 {
		t.Fatalf("store holds %d segments, want the 2 writers'", len(segs))
	}
	reg, err := os.ReadFile(filepath.Join(dir, registryName))
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Fields(string(reg))
	sort.Strings(names)
	if len(names) != 2 || names[0] != filepath.Base(segs[0]) || names[1] != filepath.Base(segs[1]) {
		t.Fatalf("registry announces %q, want the segments %q", names, segs)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 3 {
		t.Fatalf("store holds %d entries (err %v), want 2 segments and the registry", len(entries), err)
	}
	for _, path := range segs {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fr := frame.NewReader(f, maxRecord)
		for {
			_, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("segment %s: %v after %d bytes", path, err, fr.Offset())
			}
		}
		f.Close()
	}
}

// TestOpenLeavesLiveTailAlone pins how a reader treats a segment whose
// writer is still live: a half-written frame at its end is an append in
// flight, not a torn tail — not counted, not skipped past — and once the
// append completes, the next miss finds the record.
func TestOpenLeavesLiveTailAlone(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Put("kept-key", []byte(`{"x":1}`))
	seg := segments(t, dir)[0]
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The writer's next append, caught half-way.
	next := frame.Append(nil, recordBody("inflight", []byte(`{"x":2}`)))
	writeAt(t, seg, info.Size(), next[:len(next)/2])

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.TornBytes != 0 || st.Corrupt != 0 {
		t.Fatalf("live writer's in-flight append counted: %+v", st)
	}
	if _, ok := r.Get("kept-key"); !ok {
		t.Fatal("whole record before the in-flight append lost")
	}
	if _, ok := r.Get("inflight"); ok {
		t.Fatal("half-written record served")
	}
	writeAt(t, seg, info.Size()+int64(len(next)/2), next[len(next)/2:])
	if got, ok := r.Get("inflight"); !ok || !bytes.Equal(got, []byte(`{"x":2}`)) {
		t.Fatalf("completed append not found on the next miss: ok=%v payload=%s", ok, got)
	}
}

// TestApproxLen pins the cheap record counter: seeded by Open's scan,
// grown only by Puts of new keys, flat across overwrites, and in agreement
// with a fresh handle's startup scan.
func TestApproxLen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ApproxLen(); got != 0 {
		t.Fatalf("fresh store ApproxLen = %d, want 0", got)
	}
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("key-%d", i), []byte(`{"x":1}`))
	}
	s.Put("key-0", []byte(`{"x":2}`)) // overwrite: no growth
	if got := s.ApproxLen(); got != 5 {
		t.Fatalf("ApproxLen = %d after 5 distinct Puts + 1 overwrite, want 5", got)
	}
	// A second handle on the same directory seeds from its startup scan.
	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.ApproxLen(); got != 5 {
		t.Fatalf("warm ApproxLen = %d, want 5", got)
	}
}

// TestCloseReleasesDescriptors pins Close: the writer lock goes with the
// descriptors, so another handle sees the segment as final, and the
// closed handle stays usable — reads reopen, and a Put starts a new
// segment.
func TestCloseReleasesDescriptors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte(`1`))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(segments(t, dir)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !unlockedByWriters(f) {
		t.Fatal("segment still locked after Close")
	}
	f.Close()
	if got, ok := s.Get("a"); !ok || string(got) != "1" {
		t.Fatalf("Get after Close: ok=%v payload=%s", ok, got)
	}
	s.Put("b", []byte(`2`))
	if got := len(segments(t, dir)); got != 2 {
		t.Fatalf("Put after Close left %d segment(s), want 2", got)
	}
	if got, ok := s.Get("b"); !ok || string(got) != "2" {
		t.Fatalf("Get of a Put after Close: ok=%v payload=%s", ok, got)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
	// A root that cannot be created must fail loudly (Open is the one
	// store operation allowed to error).
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub")); err == nil {
		t.Fatal("Open under a plain file succeeded")
	}
}

// TestHoldsDirectories pins the directory set behind Holds: false on an
// empty store, true for a directory once a record lies in it — after a
// Put or a PutBatch, after a reopen (the scan path), after a rebuild of the
// index, and for records another live handle appended since (the refresh
// path). A key without '/' lies in no directory, and a directory holds only
// the keys whose last '/' ends it.
func TestHoldsDirectories(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const ns = "o/3f9a2c71d04e8b65/"
	if s.Holds(ns) || s.Holds("o/") || s.Holds("") {
		t.Fatal("an empty store holds a directory")
	}
	payload := []byte(`{"x":1}`)
	s.Put("point", payload)
	if s.Holds("") || s.Holds("point") || s.Holds("point/") {
		t.Fatal("a key without '/' added a directory")
	}
	s.Put(ns+"(3, 2, 3)", payload)
	if !s.Holds(ns) {
		t.Fatalf("Holds(%q) false after a Put into it", ns)
	}
	if s.Holds("o/") || s.Holds(ns[:len(ns)-1]) || s.Holds(ns+"(3, 2, 3)/") {
		t.Fatal("Holds answers for a parent, a non-directory prefix or a key")
	}
	// Runs of keys that share a directory, interleaved — at the end more
	// directories at once than a scan remembers: every run's directory is
	// added, on commit and on scan alike.
	keys := []string{"o/a/1", "o/a/2", "o/b/1", "o/a/3", "r/ckpt", "o/c/1"}
	want := []string{ns, "o/a/", "o/b/", "o/c/", "r/"}
	for i := 0; i < 24; i++ {
		keys = append(keys, fmt.Sprintf("o/w%d/(%d)", i%12, i))
		if i < 12 {
			want = append(want, fmt.Sprintf("o/w%d/", i))
		}
	}
	s.PutBatch(func(yield func(string, []byte) bool) {
		for _, k := range keys {
			if !yield(k, payload) {
				return
			}
		}
	})
	check := func(name string, h *Store) {
		t.Helper()
		for _, d := range want {
			if !h.Holds(d) {
				t.Errorf("%s: Holds(%q) = false", name, d)
			}
		}
		if h.Holds("o/d/") || h.Holds("") {
			t.Errorf("%s: holds a directory no key lies in", name)
		}
	}
	check("writer", s)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("reopened", r)
	s.reindex()
	check("reindexed", s)

	// Another live handle's appends are found by the miss's refresh.
	s.Put("o/late/(1, 1, 1)", payload)
	if !r.Holds("o/late/") {
		t.Fatal("Holds missed a directory another live handle appended to")
	}
}
