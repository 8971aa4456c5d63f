package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/frame"
)

// Journal is the coordinator's durability log: an append-only,
// length-prefixed, per-record-checksummed file of Manager state transitions.
// A Manager attached to a journal (Manager.Recover) survives process death:
// reopening the journal replays every Submit and Complete back into a fresh
// Manager, so a restarted coordinator knows its jobs and which shards are
// already done.
//
// Only the two durable transitions are journaled — Submit (a job exists)
// and Complete (a shard's records are all in the store) — and each only
// the first time it happens: the Manager answers a re-submitted job or a
// retried completion from memory. A transition is never retired either, so
// the log holds each fact once and is already the smallest record sequence
// that rebuilds the state. Leases are deliberately soft state: a recovered
// coordinator replays leased shards as pending and workers re-acquire them
// through the existing TTL-expiry stealing, which keeps journal writes
// O(jobs + done shards) instead of O(heartbeats) and loses nothing —
// duplicated shard work is already harmless by determinism.
//
// On-disk format (journal.log) is the internal/frame framing the store's
// segment files use too:
//
//	record := lenLE32 | crc32(payload)LE32 | payload(JSON Record)
//
// Every append is fsynced before it is acknowledged. The log is replayed
// torn-tail-tolerantly: a crash mid-append leaves a short or
// checksum-failing tail, replay stops at the last whole record and Open
// truncates the tail so new appends frame cleanly.
//
// Older coordinators compacted the log into snapshot.log, in the same
// framing. Open still replays such a file before the log, so an in-place
// upgrade keeps its jobs; nothing writes one any more. It was written whole
// via temp+rename, so a record-level fault inside it means real disk
// corruption and fails Open loudly (the log cannot repair a hole in its own
// base state).
type Journal struct {
	dir string

	mu       sync.Mutex
	log      *os.File
	off      int64 // end of the last whole record; writes land here
	replayed []Record

	appends   atomic.Int64
	fsyncs    atomic.Int64
	logRecs   atomic.Int64
	tornBytes atomic.Int64
}

// OpKind names a journaled Manager transition.
type OpKind string

const (
	OpSubmit   OpKind = "submit"
	OpComplete OpKind = "complete"
)

// Record is one journaled state transition.
type Record struct {
	Op    OpKind   `json:"op"`
	Spec  *JobSpec `json:"spec,omitempty"`  // OpSubmit: the normalized spec
	Job   string   `json:"job,omitempty"`   // OpComplete: content-hashed job ID
	Shard int      `json:"shard,omitempty"` // OpComplete: shard index
}

// JournalStats snapshots the journal's counters for observability
// (/statsz).
type JournalStats struct {
	Appends    int64 `json:"appends"`
	Fsyncs     int64 `json:"fsyncs"`
	LogRecords int64 `json:"log_records"` // replayed from the log at open
	TornBytes  int64 `json:"torn_bytes"`  // tail truncated at open
}

const (
	journalLogName  = "journal.log"
	journalSnapName = "snapshot.log"
	// maxRecordLen bounds one framed record; anything larger is framing
	// garbage (a JobSpec is a few hundred bytes), treated like a torn tail.
	maxRecordLen = 1 << 20
)

// OpenJournal opens (creating if necessary) the journal in dir and replays
// it: an older coordinator's snapshot first, then the log, truncating any
// torn tail. The replayed records are consumed by Manager.Recover via
// Replayed.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("fabric: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: journal: %w", err)
	}
	j := &Journal{dir: dir}

	snapRecs, _, torn, err := readFrames(filepath.Join(dir, journalSnapName))
	if err != nil {
		return nil, fmt.Errorf("fabric: journal snapshot: %w", err)
	}
	if torn > 0 {
		// The snapshot was written atomically; a bad record inside it is disk
		// corruption, not a crash artifact — refuse to silently drop base
		// state the log can no longer rebuild.
		return nil, fmt.Errorf("fabric: journal snapshot %s corrupt after %d record(s)",
			filepath.Join(dir, journalSnapName), len(snapRecs))
	}
	logPath := filepath.Join(dir, journalLogName)
	logRecs, good, torn, err := readFrames(logPath)
	if err != nil {
		return nil, fmt.Errorf("fabric: journal log: %w", err)
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fabric: journal log: %w", err)
	}
	if torn > 0 {
		// Drop the torn tail so the next append starts a clean frame.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("fabric: journal log truncate: %w", err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("fabric: journal log seek: %w", err)
	}
	j.log = f
	j.off = good
	j.replayed = append(snapRecs, logRecs...)
	j.logRecs.Store(int64(len(logRecs)))
	j.tornBytes.Store(torn)
	return j, nil
}

// readFrames parses a framed record file. It returns the records up to the
// first incomplete, checksum-failing or undecodable frame, the byte offset
// of the end of the last good record, and how many trailing bytes were
// abandoned. A missing file is zero records.
func readFrames(path string) (recs []Record, good int64, torn int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, err
	}
	defer f.Close()
	fr := frame.NewReader(f, maxRecordLen)
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			return recs, good, 0, nil
		}
		if err != nil {
			if !isFrameFault(err) {
				return nil, 0, 0, err
			}
			break
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil {
			break
		}
		recs = append(recs, rec)
		good = fr.Offset()
	}
	info, err := f.Stat()
	if err != nil {
		return nil, 0, 0, err
	}
	return recs, good, info.Size() - good, nil
}

// isFrameFault reports a torn or damaged frame, as opposed to a failed
// read.
func isFrameFault(err error) bool {
	return errors.Is(err, frame.ErrShort) || errors.Is(err, frame.ErrLength) || errors.Is(err, frame.ErrChecksum)
}

// encodeFrame renders one record in the on-disk framing.
func encodeFrame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxRecordLen {
		return nil, fmt.Errorf("fabric: journal record too large (%d bytes)", len(payload))
	}
	return frame.Append(make([]byte, 0, frame.HeaderLen+len(payload)), payload), nil
}

// Append writes one record to the log and fsyncs it. On any write failure
// the log is rolled back to the last whole record, so a failed append never
// leaves a frame that would silently truncate later successful ones at
// replay.
func (j *Journal) Append(rec Record) error {
	buf, err := encodeFrame(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.log.Write(buf); err != nil {
		j.log.Truncate(j.off)
		j.log.Seek(j.off, 0)
		return fmt.Errorf("fabric: journal append: %w", err)
	}
	if err := j.log.Sync(); err != nil {
		j.log.Truncate(j.off)
		j.log.Seek(j.off, 0)
		return fmt.Errorf("fabric: journal fsync: %w", err)
	}
	j.fsyncs.Add(1)
	j.off += int64(len(buf))
	j.appends.Add(1)
	// The crash point fires with the record durable but unacknowledged —
	// the schedule the recovery guarantees are pinned against.
	chaos.MaybeCrash(chaos.CrashJournalAppend)
	return nil
}

// Replayed returns the records recovered at open: a legacy snapshot's
// followed by the log's. Manager.Recover consumes them once; the slice is released
// afterwards via DropReplayed.
func (j *Journal) Replayed() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replayed
}

// DropReplayed releases the replay buffer once recovery has consumed it.
func (j *Journal) DropReplayed() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.replayed = nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Close releases the log file handle. A closed journal must not be
// appended to.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() JournalStats {
	return JournalStats{
		Appends:    j.appends.Load(),
		Fsyncs:     j.fsyncs.Load(),
		LogRecords: j.logRecs.Load(),
		TornBytes:  j.tornBytes.Load(),
	}
}
