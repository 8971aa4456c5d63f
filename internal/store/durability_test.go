package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/frame"
)

// TestPerFileStoreOpensEmpty pins the one-format rule: a record file in
// the per-file layout of releases before segments, root/<hh>/<sha>.json,
// is not a record. The directory opens as an empty store, the key is a
// plain miss (recomputed once, then appended to a segment), and Scrub
// visits no record and finds nothing wrong.
func TestPerFileStoreOpensEmpty(t *testing.T) {
	dir := t.TempDir()
	key := "old-layout"
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	shard := filepath.Join(dir, h[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	env := `{"v":1,"key":"old-layout","payload":{"x":1}}`
	if err := os.WriteFile(filepath.Join(shard, h+".json"), []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ApproxLen(); got != 0 {
		t.Fatalf("ApproxLen = %d over a per-file record, want 0", got)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("per-file record served")
	}
	if st := s.Stats(); st.Corrupt != 0 || st.Hits != 0 {
		t.Fatalf("stats %+v, want a plain miss", st)
	}
	rep, err := s.Scrub(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bad() != 0 || rep.Scanned != 0 || rep.Segments != 0 {
		t.Fatalf("scrub of a per-file store: %+v, want nothing visited", rep)
	}
}

// TestV2ChecksumSurvivesHTMLEscapableBytes pins the byte discipline of the
// v2 write path: < > & and friends in the payload must round-trip with a
// valid checksum, which only works if the bytes hashed, the bytes stored,
// and the bytes re-read are the same bytes.
func TestV2ChecksumSurvivesHTMLEscapableBytes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"html":"<script>1&2</script>","u":"<"}`)
	s.Put("hostile", payload)
	got, ok := s.Get("hostile")
	if !ok {
		t.Fatal("v2 record with HTML-escapable payload reads as a miss (checksum broke)")
	}
	var want bytes.Buffer
	if err := json.Compact(&want, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("payload changed across round-trip:\n got %s\nwant %s", got, want.Bytes())
	}
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("round-trip counted %d corrupt record(s)", st.Corrupt)
	}
}

// TestChecksumMismatchReadsAsMiss pins what the payload checksum adds to
// the frame CRC: a payload altered in place — still perfectly valid JSON,
// with a CRC that matches again (the damage the CRC alone cannot see) —
// reads as a miss and counts as corrupt.
func TestChecksumMismatchReadsAsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "bitrot"
	s.Put(key, []byte(`{"x":1111}`))
	path, off, n := frameOf(t, s, key)
	reframe(t, path, off, n, func(body []byte) {
		i := bytes.Index(body, []byte("1111"))
		if i < 0 {
			t.Fatal("test bug: payload digits not found to flip")
		}
		body[i+2] = '2'
	})
	if _, ok := s.Get(key); ok {
		t.Fatal("bit-flipped (but valid-JSON, CRC-valid) payload served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}
	// Degrade contract: recompute-and-overwrite heals.
	s.Put(key, []byte(`{"x":1111}`))
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, []byte(`{"x":1111}`)) {
		t.Fatalf("re-Put did not heal: ok=%v payload=%s", ok, got)
	}
}

// TestFlippedFrameByteReadsAsMiss pins plain bit rot inside a frame's
// payload, which the frame CRC catches: the handle holding the record
// reads it as a corrupt miss, and a handle opened afterwards counts the
// damaged frame, skips it and still reads the whole frames after it.
func TestFlippedFrameByteReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("rotten", []byte(`{"x":1}`))
	s.Put("after", []byte(`{"x":2}`))
	path, off, n := frameOf(t, s, "rotten")
	writeAt(t, path, off+int64(n)-2, []byte{'9'}) // the payload's "1"
	if _, ok := s.Get("rotten"); ok {
		t.Fatal("frame with a flipped payload byte served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", st.Corrupt)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Corrupt != 1 || st.TornBytes != 0 {
		t.Fatalf("reopened handle's scan: %+v, want 1 corrupt frame and no torn bytes", st)
	}
	if _, ok := r.Get("rotten"); ok {
		t.Fatal("reopened handle served the damaged frame")
	}
	if got, ok := r.Get("after"); !ok || !bytes.Equal(got, []byte(`{"x":2}`)) {
		t.Fatalf("frame after the damaged one lost: ok=%v payload=%s", ok, got)
	}
}

// TestPutErrorLoggedOncePerHandle pins the satellite fix for "counted but
// never surfaced": a store whose segment cannot be created logs exactly
// one diagnostic per handle while every failure still counts. Root runs
// ignore permission bits, so the unwritable store is a plain file
// squatting where the directory was — creating a segment in it fails with
// ENOTDIR for any uid.
func TestPutErrorLoggedOncePerHandle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	s.logf = func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	key := "blocked-key"
	for i := 0; i < 5; i++ {
		s.Put(key, []byte(`{"x":1}`))
	}
	if st := s.Stats(); st.PutErrors != 5 {
		t.Fatalf("PutErrors = %d, want 5", st.PutErrors)
	}
	if len(logs) != 1 {
		t.Fatalf("logged %d line(s) for 5 failed puts, want exactly 1: %q", len(logs), logs)
	}
	if !strings.Contains(logs[0], key) {
		t.Fatalf("put-error log does not name the key: %q", logs[0])
	}
	// Reads of the blocked store are plain misses, not log spam.
	if _, ok := s.Get(key); ok {
		t.Fatal("Get from a blocked store hit")
	}
	if len(logs) != 1 {
		t.Fatalf("Get added log lines: %q", logs)
	}
}

// TestTornSegmentReopens is the crash test: a writer dies mid-append,
// leaving its segment cut inside a frame. Reopening reads back every
// whole frame and counts the torn bytes; the new handle's appends land in
// its own segment, never behind the torn tail, and read back from a third
// handle.
func TestTornSegmentReopens(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf(`{"i":%d}`, i)))
	}
	path, off, n := frameOf(t, w, "key-4")
	w.Close() // the writer is gone: its lock with it, as at process death
	cut := off + int64(n) - 5
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.TornBytes != cut-off || st.Corrupt != 0 {
		t.Fatalf("reopen stats %+v, want %d torn bytes and nothing corrupt", st, cut-off)
	}
	for i := 0; i < 4; i++ {
		want := fmt.Sprintf(`{"i":%d}`, i)
		if got, ok := r.Get(fmt.Sprintf("key-%d", i)); !ok || string(got) != want {
			t.Fatalf("whole frame key-%d: ok=%v payload=%s", i, ok, got)
		}
	}
	if _, ok := r.Get("key-4"); ok {
		t.Fatal("torn frame served")
	}
	r.Put("key-4", []byte(`{"i":4}`))
	r.Put("key-5", []byte(`{"i":5}`))
	if segs := segments(t, dir); len(segs) != 2 {
		t.Fatalf("%d segment(s) after the new handle's appends, want 2", len(segs))
	}
	if info, err := os.Stat(path); err != nil || info.Size() != cut {
		t.Fatalf("torn segment changed: %v, %v", info, err)
	}
	third, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		want := fmt.Sprintf(`{"i":%d}`, i)
		if got, ok := third.Get(fmt.Sprintf("key-%d", i)); !ok || string(got) != want {
			t.Fatalf("third handle key-%d: ok=%v payload=%s", i, ok, got)
		}
	}
}

// TestSyncPutsCountsFsyncs pins the opt-in durability mode: records still
// round-trip and the fsync work is visible in Stats.
func TestSyncPutsCountsFsyncs(t *testing.T) {
	s, err := OpenWithOptions(t.TempDir(), Options{SyncPuts: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("durable", []byte(`{"x":1}`))
	if got, ok := s.Get("durable"); !ok || !bytes.Equal(got, []byte(`{"x":1}`)) {
		t.Fatalf("sync-put round trip: ok=%v payload=%s", ok, got)
	}
	// The first put fsyncs the directory holding its new segment and the
	// segment (directory sync may be unsupported on exotic filesystems;
	// require at least the segment's); later ones only the segment.
	if st := s.Stats(); st.Fsyncs < 1 || st.Fsyncs > 2 {
		t.Fatalf("Fsyncs = %d after one sync put, want 1 or 2", st.Fsyncs)
	}
	before := s.Stats().Fsyncs
	s.PutBatch(func(yield func(string, []byte) bool) {
		_ = yield("b1", []byte(`1`)) && yield("b2", []byte(`2`))
	})
	if got := s.Stats().Fsyncs - before; got != 1 {
		t.Fatalf("a batch of 2 cost %d fsyncs, want 1", got)
	}
}

// scrubFixture builds a store containing every class Scrub distinguishes:
// a finished writer's segment with a good record, a checksum-mismatched
// one, a CRC-damaged one and a torn tail; a live writer's segment with a
// good record and an append in flight.
func scrubFixture(t *testing.T) (s *Store, goodKey, rotKey string, tail int64) {
	t.Helper()
	dir := t.TempDir()
	var err error
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	goodKey, rotKey = "good", "rot"
	s.Put(goodKey, []byte(`{"x":1}`))
	s.Put(rotKey, []byte(`{"x":3333}`))
	s.Put("crc", []byte(`{"x":4}`))

	// Checksum mismatch: valid frame, payload altered in place.
	path, off, n := frameOf(t, s, rotKey)
	reframe(t, path, off, n, func(body []byte) { body[len(body)-3] = '4' })
	// Corrupt: a flipped payload byte the frame CRC catches.
	_, off, n = frameOf(t, s, "crc")
	writeAt(t, path, off+int64(n)-2, []byte{'5'})
	// A torn tail, then the writer goes.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := frame.Append(nil, recordBody("torn", []byte(`{"x":5}`)))[:20]
	writeAt(t, path, info.Size(), torn)
	tail = int64(len(torn))
	s.Close()

	// A live writer with an append in flight: not the scrub's problem.
	live, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live.Put("live", []byte(`{"x":6}`))
	t.Cleanup(func() { live.Close() })
	livePath, off, n := frameOf(t, live, "live")
	writeAt(t, livePath, off+int64(n), torn)
	return s, goodKey, rotKey, tail
}

func TestScrubClassifies(t *testing.T) {
	s, _, _, tail := scrubFixture(t)
	rep, err := s.Scrub(false)
	if err != nil {
		t.Fatal(err)
	}
	want := ScrubReport{Segments: 2, Scanned: 4, OK: 2, Corrupt: 1, ChecksumMismatch: 1, TornTails: 1, TornBytes: tail}
	if rep != want {
		t.Fatalf("dry-run report %+v, want %+v", rep, want)
	}
	if rep.Bad() != 3 {
		t.Fatalf("Bad() = %d, want 3", rep.Bad())
	}
	// Dry run mutates nothing: a second walk sees the same picture.
	again, err := s.Scrub(false)
	if err != nil {
		t.Fatal(err)
	}
	if again != rep {
		t.Fatalf("second dry run diverged: %+v vs %+v", again, rep)
	}
}

func TestScrubRepairQuarantines(t *testing.T) {
	s, goodKey, rotKey, _ := scrubFixture(t)
	rep, err := s.Scrub(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 2 || rep.Rewritten != 1 {
		t.Fatalf("repair report %+v, want 2 quarantined and 1 segment rewritten", rep)
	}
	// Bad records are out of the read path but preserved for postmortem:
	// the rewritten segment's bad frames and torn tail in one file.
	qdir := filepath.Join(s.Root(), quarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("quarantine holds %d file(s) (err %v), want 1", len(entries), err)
	}
	if _, ok := s.Get(rotKey); ok {
		t.Fatal("quarantined record served as a hit")
	}
	// Healthy records and the counter survive the repair.
	for _, key := range []string{goodKey, "live"} {
		if _, ok := s.Get(key); !ok {
			t.Fatalf("record %q lost to repair", key)
		}
	}
	if got := s.ApproxLen(); got != 2 {
		t.Fatalf("ApproxLen = %d after repair, want 2", got)
	}
	// The store is now clean: only the live writer's in-flight append
	// remains, and it is nobody's problem.
	clean, err := s.Scrub(false)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Bad() != 0 {
		t.Fatalf("store still dirty after repair: %+v", clean)
	}
	// A later Open must neither count quarantined records nor trip on
	// them.
	reopened, err := Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.ApproxLen(); got != 2 {
		t.Fatalf("reopened ApproxLen = %d, want 2 (quarantine leaked into the scan?)", got)
	}
	if st := reopened.Stats(); st.Corrupt != 0 || st.TornBytes != 0 {
		t.Fatalf("reopened handle met damage after repair: %+v", st)
	}
}

// TestScrubRepairsOwnLiveSegment pins online repair (served's
// /v1/admin/scrub?repair=1): the handle's own damaged segment is released
// and rewritten, the handle keeps serving and appending, and a repair
// that finds nothing to fix leaves its writer alone.
func TestScrubRepairsOwnLiveSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte(`{"x":1}`))
	if rep, err := s.Scrub(true); err != nil || rep.Bad() != 0 || rep.Rewritten != 0 {
		t.Fatalf("repair of a clean store: %+v, %v", rep, err)
	}
	s.Put("b", []byte(`{"x":2}`))
	if n := len(segments(t, dir)); n != 1 {
		t.Fatalf("a clean repair cost the writer its segment: %d segments", n)
	}
	path, off, n := frameOf(t, s, "b")
	writeAt(t, path, off+int64(n)-2, []byte{'9'})

	rep, err := s.Scrub(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || rep.Quarantined != 1 || rep.Rewritten != 1 {
		t.Fatalf("online repair report %+v, want 1 corrupt frame quarantined by 1 rewrite", rep)
	}
	if got, ok := s.Get("a"); !ok || string(got) != `{"x":1}` {
		t.Fatalf("good record after online repair: ok=%v payload=%s", ok, got)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("quarantined record served")
	}
	s.Put("c", []byte(`{"x":3}`))
	if got, ok := s.Get("c"); !ok || string(got) != `{"x":3}` {
		t.Fatalf("Put after online repair: ok=%v payload=%s", ok, got)
	}
	if clean, err := s.Scrub(false); err != nil || clean.Bad() != 0 || clean.OK != 2 {
		t.Fatalf("store after online repair: %+v, %v", clean, err)
	}
}

// TestScrubRepairUnderLoad runs online repairs while writers and readers
// share the handle: the repair swaps the handle's index and releases its
// writer under their feet, and no read may see a wrong payload, no write
// may fail, and every record written is readable afterwards.
func TestScrubRepairUnderLoad(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put("rotten", []byte(`{"x":1}`))
	path, off, n := frameOf(t, s, "rotten")
	writeAt(t, path, off+int64(n)-2, []byte{'9'})

	const writers, keys = 4, 64
	payload := func(k int) []byte { return []byte(fmt.Sprintf(`{"k":%d}`, k)) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("key-%d", k)
				s.Put(key, payload(k))
				if got, ok := s.Get(key); ok && !bytes.Equal(got, payload(k)) {
					t.Errorf("%s read %s during repair", key, got)
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Scrub(true); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if st := s.Stats(); st.PutErrors != 0 {
		t.Fatalf("%d puts failed during repair", st.PutErrors)
	}
	for k := 0; k < keys; k++ {
		if got, ok := s.Get(fmt.Sprintf("key-%d", k)); !ok || !bytes.Equal(got, payload(k)) {
			t.Fatalf("key-%d after repairs: ok=%v payload=%s", k, ok, got)
		}
	}
	if rep, err := s.Scrub(false); err != nil || rep.Bad() != 0 {
		t.Fatalf("store after repairs: %+v, %v", rep, err)
	}
}
