package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame"
)

// specVariant returns a distinct valid JobSpec per index, for journals that
// need more than one job.
func specVariant(i int) JobSpec {
	return JobSpec{N: 3 + i%4, Seed: int64(i), Shards: 1 + i%3}
}

func mustAppend(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// recordsEqual compares record slices structurally (Spec is a pointer, so
// == is useless and reflect would compare pointer targets anyway; JSON is
// the journal's own canonical form).
func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		aj, _ := json.Marshal(a[i])
		bj, _ := json.Marshal(b[i])
		if !bytes.Equal(aj, bj) {
			return false
		}
	}
	return true
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := specVariant(0)
	recs := []Record{
		{Op: OpSubmit, Spec: &spec},
		{Op: OpComplete, Job: spec.ID(), Shard: 0},
		{Op: OpComplete, Job: spec.ID(), Shard: 2},
	}
	mustAppend(t, j, recs...)
	if st := j.Stats(); st.Appends != 3 || st.Fsyncs < 3 {
		t.Fatalf("stats after 3 synced appends: %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Replayed(); !recordsEqual(got, recs) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, recs)
	}
	if st := j2.Stats(); st.LogRecords != 3 || st.TornBytes != 0 {
		t.Fatalf("replay stats %+v", st)
	}
}

func TestJournalTornTailTruncatedAndWritable(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := specVariant(1)
	recs := []Record{
		{Op: OpSubmit, Spec: &spec},
		{Op: OpComplete, Job: spec.ID(), Shard: 1},
	}
	mustAppend(t, j, recs...)
	j.Close()

	logPath := filepath.Join(dir, "journal.log")
	whole, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tail []byte
	}{
		{"half-frame", whole[:9]}, // length prefix + torn payload
		{"bad-length", []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}},
		{"bad-crc", append(append([]byte{4, 0, 0, 0}, 0xde, 0xad, 0xbe, 0xef), []byte("true")...)},
		{"garbage", []byte("\x00\x01partial record bytes")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(logPath, append(append([]byte{}, whole...), tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			j2, err := OpenJournal(dir)
			if err != nil {
				t.Fatalf("torn tail failed open: %v", err)
			}
			if got := j2.Replayed(); !recordsEqual(got, recs) {
				t.Fatalf("torn replay: got %d record(s), want the %d whole ones", len(got), len(recs))
			}
			if st := j2.Stats(); st.TornBytes != int64(len(tc.tail)) {
				t.Fatalf("TornBytes = %d, want %d", st.TornBytes, len(tc.tail))
			}
			// The tail was truncated away: a new append frames cleanly and the
			// next open sees whole records only.
			extra := Record{Op: OpComplete, Job: spec.ID(), Shard: 0}
			mustAppend(t, j2, extra)
			j2.Close()
			j3, err := OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer j3.Close()
			if got := j3.Replayed(); !recordsEqual(got, append(append([]Record{}, recs...), extra)) {
				t.Fatalf("post-truncation append lost: %+v", got)
			}
			// Restore the pristine log for the next case.
			j3.Close()
			if err := os.WriteFile(logPath, whole, 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestJournalSnapshotCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	spec := specVariant(2)
	data := frameRecords(t, Record{Op: OpSubmit, Spec: &spec})
	data[len(data)-2] ^= 0xff // flip a payload byte: crc must catch it
	if err := os.WriteFile(filepath.Join(dir, "snapshot.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir); err == nil {
		t.Fatal("corrupt snapshot opened silently; base state would be lost")
	}
}

// frameRecords renders recs as a journal file by hand: each record's JSON
// in one internal/frame frame, as an older coordinator wrote its
// snapshot.log.
func frameRecords(t *testing.T, recs ...Record) []byte {
	t.Helper()
	var out []byte
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = frame.Append(out, payload)
	}
	return out
}

// TestJournalReplaysLegacySnapshot pins the upgrade path: a snapshot.log
// an older coordinator compacted into, beside the journal.log it appended
// to afterwards, replays the snapshot's records and then the log's, and a
// Manager recovers both.
func TestJournalReplaysLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	a, b := specVariant(4).normalized(), specVariant(5).normalized()
	snap := []Record{
		{Op: OpSubmit, Spec: &a},
		{Op: OpComplete, Job: a.ID(), Shard: 0},
	}
	log := []Record{
		{Op: OpComplete, Job: a.ID(), Shard: 1},
		{Op: OpSubmit, Spec: &b},
		{Op: OpComplete, Job: b.ID(), Shard: 1},
	}
	snapPath := filepath.Join(dir, "snapshot.log")
	if err := os.WriteFile(snapPath, frameRecords(t, snap...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.log"), frameRecords(t, log...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got, want := j.Replayed(), append(append([]Record{}, snap...), log...); !recordsEqual(got, want) {
		t.Fatalf("replay order:\n got %+v\nwant %+v", got, want)
	}
	if st := j.Stats(); st.LogRecords != 3 || st.TornBytes != 0 {
		t.Fatalf("replay stats %+v, want the 3 log records and no torn tail", st)
	}
	m := NewManager()
	rst, err := m.Recover(j)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Records != 5 || rst.Jobs != 2 || rst.DoneShards != 3 || rst.Skipped != 0 {
		t.Fatalf("recovered %+v, want 5 records, 2 jobs, 3 done shards", rst)
	}
	for _, tc := range []struct {
		spec JobSpec
		done int
	}{{a, 2}, {b, 1}} {
		if st, ok := m.Status(tc.spec.ID()); !ok || st.Done != tc.done {
			t.Fatalf("job %s: ok=%v done=%d, want %d", tc.spec.ID(), ok, st.Done, tc.done)
		}
	}
	// Appends after the upgrade land in the log; the snapshot stays as the
	// older coordinator left it.
	if err := m.Complete(b.ID(), 0, "w"); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(data, frameRecords(t, snap...)) {
		t.Fatalf("snapshot.log changed after an append (err %v)", err)
	}
}

// TestJournalAppendsEachTransitionOnce drives submits, duplicate submits
// and retried completes through a journaled Manager: the journal appends
// exactly one record per distinct transition, the log holds exactly those
// records framed, and a reopened journal rebuilds the same jobs and done
// shards. The log is already the smallest record sequence that rebuilds
// the state, so there is nothing to compact.
func TestJournalAppendsEachTransitionOnce(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	if _, err := m.Recover(j); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	var submitted []JobSpec
	var want []Record
	done := map[Record]bool{}
	completes := 0
	for i := 0; i < 40; i++ {
		spec := specVariant(rng.Intn(25)).normalized()
		if _, created, err := m.Submit(spec); err != nil {
			t.Fatal(err)
		} else if created {
			submitted = append(submitted, spec)
			want = append(want, Record{Op: OpSubmit, Spec: &spec})
		}
		for k := rng.Intn(4); k > 0; k-- {
			spec := submitted[rng.Intn(len(submitted))]
			rec := Record{Op: OpComplete, Job: spec.ID(), Shard: rng.Intn(spec.Shards)}
			if err := m.Complete(rec.Job, rec.Shard, "w"); err != nil {
				t.Fatal(err)
			}
			completes++
			if !done[rec] {
				done[rec] = true
				want = append(want, rec)
			}
		}
	}
	if len(submitted) == 40 || completes == len(done) {
		t.Fatalf("40 submits made %d jobs and %d completes %d done shards: the drive needs a duplicate of each", len(submitted), completes, len(done))
	}
	if st := j.Stats(); st.Appends != int64(len(want)) || st.Fsyncs != st.Appends {
		t.Fatalf("stats %+v, want %d appends with one fsync each", st, len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if framed := frameRecords(t, want...); !bytes.Equal(data, framed) {
		t.Fatalf("journal.log holds %d bytes, want the %d distinct transitions framed in %d", len(data), len(want), len(framed))
	}

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	m2 := NewManager()
	rst, err := m2.Recover(j2)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Jobs != len(submitted) || rst.DoneShards != len(done) || rst.Skipped != 0 {
		t.Fatalf("recovered %+v, want %d jobs and %d done shards", rst, len(submitted), len(done))
	}
	before, _ := json.Marshal(m.Jobs())
	after, _ := json.Marshal(m2.Jobs())
	if !bytes.Equal(before, after) {
		t.Fatalf("recovered jobs differ:\n got %s\nwant %s", after, before)
	}
}

func TestManagerJournalWriteAheadSemantics(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	if _, err := m.Recover(j); err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{N: 4, Seed: 9, Shards: 2}
	id, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, again, err := m.Submit(spec); err != nil || again {
		t.Fatalf("idempotent re-submit: created=%v err=%v", again, err)
	}
	if err := m.Complete(id, 0, "w1"); err != nil {
		t.Fatal(err)
	}
	appends := j.Stats().Appends
	// Duplicate transitions append nothing: a retried Complete for a done
	// shard and a re-Submit of a live job are both satisfied from memory.
	if err := m.Complete(id, 0, "w2"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Appends; got != appends {
		t.Fatalf("duplicate transitions appended %d record(s)", got-appends)
	}
	// Journal failure refuses the transition and maps onto ErrJournal.
	j.Close() // appends now fail on the closed file
	if err := m.Complete(id, 1, "w1"); !errors.Is(err, ErrJournal) {
		t.Fatalf("complete on dead journal: %v, want ErrJournal", err)
	}
	// The refused transition was not applied.
	st, ok := m.Status(id)
	if !ok || st.Done != 1 {
		t.Fatalf("refused completion leaked into state: %+v", st)
	}
}

// TestJournalReplayProperty drives random Submit/Complete interleavings
// through a journal, tears the log at a random byte, and requires replay to
// produce exactly the surviving whole-record prefix — the property the
// torn-tail tolerance promises.
func TestJournalReplayProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 40; trial++ {
		dir := t.TempDir()
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		var submitted []JobSpec
		var appended []Record
		for i, n := 0, 3+rng.Intn(10); i < n; i++ {
			if len(submitted) == 0 || rng.Intn(2) == 0 {
				spec := specVariant(rng.Intn(8)).normalized()
				submitted = append(submitted, spec)
				appended = append(appended, Record{Op: OpSubmit, Spec: &spec})
			} else {
				spec := submitted[rng.Intn(len(submitted))]
				appended = append(appended, Record{
					Op: OpComplete, Job: spec.ID(), Shard: rng.Intn(spec.Shards),
				})
			}
			mustAppend(t, j, appended[len(appended)-1])
		}
		j.Close()

		logPath := filepath.Join(dir, "journal.log")
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		cut := rng.Intn(len(data) + 1)
		if err := os.WriteFile(logPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("trial %d: open torn journal: %v", trial, err)
		}
		got := j2.Replayed()
		j2.Close()
		if !recordsEqual(got, appended[:len(got)]) {
			t.Fatalf("trial %d: replay is not a prefix: got %+v of %+v", trial, got, appended)
		}
		if cut == len(data) && len(got) != len(appended) {
			t.Fatalf("trial %d: untorn journal lost records: %d of %d", trial, len(got), len(appended))
		}
	}
}

// FuzzJournalReplay fuzzes the same prefix property with arbitrary op
// sequences and cut points, plus hostile log bytes via the write path.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint16(10))
	f.Add([]byte{7}, uint16(0))
	f.Add([]byte{0, 0, 255, 254, 9, 9, 9}, uint16(65535))
	f.Fuzz(func(t *testing.T, ops []byte, cut uint16) {
		if len(ops) > 32 {
			ops = ops[:32]
		}
		dir := t.TempDir()
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		var submitted []JobSpec
		var appended []Record
		for _, b := range ops {
			var rec Record
			if len(submitted) == 0 || b%2 == 0 {
				spec := specVariant(int(b / 2)).normalized()
				submitted = append(submitted, spec)
				rec = Record{Op: OpSubmit, Spec: &spec}
			} else {
				spec := submitted[int(b)%len(submitted)]
				rec = Record{Op: OpComplete, Job: spec.ID(), Shard: int(b) % spec.Shards}
			}
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			appended = append(appended, rec)
		}
		j.Close()

		logPath := filepath.Join(dir, "journal.log")
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		at := int(cut) % (len(data) + 1)
		if err := os.WriteFile(logPath, data[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(dir)
		if err != nil {
			t.Fatalf("open torn journal: %v", err)
		}
		got := j2.Replayed()
		j2.Close()
		if len(got) > len(appended) {
			t.Fatalf("replay invented records: %d > %d", len(got), len(appended))
		}
		if !recordsEqual(got, appended[:len(got)]) {
			t.Fatalf("replay is not an exact prefix (%d of %d records)", len(got), len(appended))
		}
		if at == len(data) && len(got) != len(appended) {
			t.Fatalf("untorn journal lost records: %d of %d", len(got), len(appended))
		}
		// A recovered Manager must accept whatever prefix survived.
		m := NewManager()
		if _, err := m.Recover(j2); err != nil {
			t.Fatalf("recover from torn prefix: %v", err)
		}
	})
}

// TestJournalRejectsEmptyDirAndBadDir pins Open's error paths.
func TestJournalRejectsEmptyDirAndBadDir(t *testing.T) {
	if _, err := OpenJournal(""); err == nil {
		t.Fatal("empty journal dir accepted")
	}
	file := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(filepath.Join(file, "sub")); err == nil {
		t.Fatal("journal dir under a plain file accepted")
	}
}

// TestJournalSyncPolicies pins the journal's one durability mode: an
// append costs exactly one fsync, and the record replays after a reopen.
func TestJournalSyncPolicies(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := specVariant(3)
	mustAppend(t, j, Record{Op: OpSubmit, Spec: &spec})
	if st := j.Stats(); st.Appends != 1 || st.Fsyncs != 1 {
		t.Fatalf("stats after 1 append: %+v, want 1 append and 1 fsync", st)
	}
	j.Close()
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Replayed(); !recordsEqual(got, []Record{{Op: OpSubmit, Spec: &spec}}) {
		t.Fatalf("replayed %+v, want the one submit", got)
	}
}
