// Package store is the persistent result tier of the evaluation pipeline:
// a disk-backed key/value store for the deterministic evaluation records
// produced by the sweep engine (timing, full-design, and joint
// cache-partition outcomes, plus per-scenario checkpoint records and
// rendered tables).
//
// Records are addressed by the same canonical string keys the in-memory
// evalcache layer uses (schedule and joint-point keys prefixed by an
// evaluation-signature namespace, see internal/engine).
//
// Layout. A store is a directory of append-only segment files,
// root/<creation-time><random>.seg. Every Store handle appends to its own
// segment, created at the handle's first Put and never written by anyone
// else, so handles — goroutines of one process or separate processes
// sharing the directory — never contend for a file. A segment is a
// sequence of internal/frame frames, one record each:
//
//	frame  := lenLE32 | crc32c(body)LE32 | body
//	body   := Version(1 byte) | uvarint(len(key)) | key | sha256(payload) | payload
//
// where payload is the caller's JSON in compact form. Open streams the
// segments once into an in-memory index from a 64-bit key hash to the
// frame's segment and offset, 16 bytes a record with no key strings. Get
// reads that one frame with pread and checks its CRC, its key and its
// payload checksum. A later frame for a key supersedes an earlier one.
// quarantine/ holds what Scrub's repair moved aside. Anything else under
// root is ignored: the per-file <hh>/ directories of releases before
// segments read as an empty store, so each of their records is recomputed
// once, and they may be deleted.
//
// Directories. Beside the index the handle keeps a set of the hashes of
// every indexed key's directory: the key's prefix up to and including its
// last '/', so "o/<hash>/(3, 2, 3)" lies in "o/<hash>/" and a key without
// '/' in none. Holds answers from it whether any record lies in a
// directory, which lets a caller about to read a whole namespace skip
// every read of one that is empty. A directory is hashed once per run of
// keys that share it, also where a few runs interleave (concurrent
// scenarios writing through one handle), so the set costs Open little: a
// prefix compare for most keys. It holds one 8-byte hash per directory, one
// per evaluation namespace: 24 to 36 bytes of Go map each, against an
// index entry per record, and a namespace holds tens to thousands of
// records. A false answer is exact for the handle: a miss rescans what
// other writers appended, as Get does. A hash collision can only answer
// true, which costs the caller the reads it would have made.
//
// Key invariants:
//
//   - Reads never fail the caller: a missing, torn, garbled,
//     version-mismatched, or key-mismatched record reads as a miss and the
//     caller recomputes. Corruption is counted (Stats.Corrupt), never
//     served and never fatal. A key whose index hash collides with another
//     key's reads as a plain miss.
//   - Writes are best-effort and whole: every Put reaches its segment with
//     one write before it returns (no user-space buffer), so a handle
//     opened later sees the record, and a crash can at most leave a torn
//     frame at the end of the dying writer's segment — which readers stop
//     at and count (Stats.TornBytes).
//   - A handle reads records that other live handles appended after it
//     opened: an index miss rescans the new tails of other writers'
//     segments. A writer holds an exclusive flock on its segment, so a
//     segment whose writer has gone is known to be final and is never
//     rescanned. A registry file announces every new segment, so in a
//     directory with one writer a miss costs one lseek of it.
//   - The store is strictly a cache of recomputable results: deleting any
//     file (or the whole root) is always safe.
package store

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"iter"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// Version is the record schema version, the first byte of every segment
// record. Records carry a sha256 payload checksum, so a bit-flip that
// survives the frame CRC cannot be served as a valid record.
const Version = 2

const (
	// segmentExt names segment files.
	segmentExt = ".seg"
	// quarantineDir is where Scrub's repair keeps bad records' bytes. Every
	// walk skips it.
	quarantineDir = "quarantine"
	// maxRecord caps one frame's body: far above any record (the HTTP plane
	// caps payloads at 8 MiB), so a larger length is framing garbage.
	maxRecord = 64 << 20
	// registryName is the file every new segment's name is appended to
	// before the segment gets its first record. Its length changes with
	// every segment created, so one stat of it tells a reader whether the
	// directory needs listing again — unlike the directory's modification
	// time, which a coarse kernel clock may leave unchanged.
	registryName = "segments"
)

// Stats counts store traffic. Hits+misses refer to Get calls; Corrupt
// counts records that existed but were rejected (failed frame CRC, bad
// version, wrong key, checksum mismatch), whether Get met them or the
// segment scans did; PutErrors counts best-effort writes that failed;
// TornBytes counts the bytes after the last whole frame of finished
// writers' segments, seen by this handle's scans; Fsyncs counts the fsync
// calls of a SyncPuts store.
type Stats struct {
	Gets      int64 `json:"gets"`
	Hits      int64 `json:"hits"`
	Puts      int64 `json:"puts"`
	Corrupt   int64 `json:"corrupt"`
	PutErrors int64 `json:"put_errors"`
	TornBytes int64 `json:"torn_bytes"`
	Fsyncs    int64 `json:"fsyncs"`
}

// Store is a disk-backed internal/engine/evalcache.Backend. All methods
// are safe for concurrent use by multiple goroutines and multiple
// processes sharing one root directory.
type Store struct {
	root     string
	syncPuts bool
	logf     func(format string, args ...any) // put-error reporter, injectable in tests

	gets      atomic.Int64
	hits      atomic.Int64
	puts      atomic.Int64
	corrupt   atomic.Int64
	putErrors atomic.Int64
	tornBytes atomic.Int64
	fsyncs    atomic.Int64

	// errLogged latches after the first logged put error so a read-only or
	// full disk produces one diagnostic line per handle, not one per write.
	errLogged atomic.Bool

	// records is the number of distinct keys indexed: kept current by
	// every index change, so ApproxLen is O(1).
	records atomic.Int64

	// mu guards the index, the directory set and the segment table.
	mu    sync.RWMutex
	index map[uint64]loc
	dirs  map[uint64]struct{} // hashes of the indexed keys' directories
	segs  []*segment
	known map[string]bool // segment file names in segs

	// refreshMu serializes listings and tail scans; refreshes counts the
	// refreshes started, so a miss that raced a refresh begun after its
	// lookup does not repeat it. listed is the registry's length at the
	// last listing (-1: no registry); reg is the registry, opened at the
	// first refresh.
	refreshMu sync.Mutex
	refreshes atomic.Uint64
	listed    int64
	reg       *os.File

	// wmu serializes appends to the handle's own segment w (nil until the
	// first Put, and again after Close); wseg is its number in segs and
	// wend the end of its last whole frame.
	wmu  sync.Mutex
	w    *segment
	wseg uint32
	wend int64
}

// keySeed seeds the index hash. The index lives in one process, so the
// hash need not be stable across processes.
var keySeed = maphash.MakeSeed()

func keyHash(key string) uint64 { return maphash.String(keySeed, key) }

// dirOf is a key's directory: its prefix up to and including its last
// '/', empty for a key without one.
func dirOf(key string) string { return key[:strings.LastIndexByte(key, '/')+1] }

// Options tunes OpenWithOptions beyond the defaults Open uses.
type Options struct {
	// SyncPuts makes every Put fsync its segment before returning (and the
	// directory after creating the segment): a record a Put has returned
	// from survives power loss, at roughly one disk flush per write. Off by
	// default — the store is a cache of recomputable results and a torn
	// tail costs only recomputation; turn it on when recomputation is
	// expensive enough that machine crashes must not shed warm state.
	SyncPuts bool
}

// Open creates (if necessary) and opens a store rooted at dir with default
// options. Opening streams every segment once into the handle's index; it
// holds no file descriptor afterwards — the handle opens one at its first
// Put and one per segment at its first read of that segment.
func Open(dir string) (*Store, error) {
	return OpenWithOptions(dir, Options{})
}

// OpenWithOptions is Open with explicit Options.
func OpenWithOptions(dir string, o Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return newHandle(dir, o), nil
}

// newHandle returns a handle on dir whose index holds every segment's
// records.
func newHandle(dir string, o Options) *Store {
	s := &Store{root: dir, syncPuts: o.SyncPuts, logf: log.Printf, index: make(map[uint64]loc), dirs: make(map[uint64]struct{}), known: make(map[string]bool), listed: -2}
	s.list(registryStat(dir))
	return s
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// lookup returns the indexed location of a key hash.
func (s *Store) lookup(h uint64) (*segment, loc, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	l, ok := s.index[h]
	if !ok {
		return nil, l, false
	}
	return s.segs[l.seg()], l, true
}

// Get returns the payload stored under key. Any failure to produce a valid
// record — absent, torn or garbled frame, version or key mismatch, payload
// checksum mismatch — reads as a miss; the caller recomputes and may
// re-Put. A key the index lacks is looked up again after rescanning what
// other writers appended since.
func (s *Store) Get(key string) ([]byte, bool) {
	s.gets.Add(1)
	h := keyHash(key)
	seen := s.refreshes.Load()
	g, l, ok := s.lookup(h)
	if !ok {
		s.refresh(seen)
		if g, l, ok = s.lookup(h); !ok {
			return nil, false
		}
	}
	payload, v := g.read(l, key, h)
	switch v {
	case recordOK:
		s.hits.Add(1)
		return payload, true
	case recordCorrupt, recordSumMismatch:
		s.corrupt.Add(1)
	}
	return nil, false
}

// Holds reports whether any record lies in directory dir (a key prefix
// ending in '/', such as an evaluation namespace). A directory the handle
// has not indexed is looked up again after rescanning what other writers
// appended since, so false means no record in dir was readable by Get
// either; true may be a hash collision.
func (s *Store) Holds(dir string) bool {
	h := keyHash(dir)
	seen := s.refreshes.Load()
	if s.holds(h) {
		return true
	}
	s.refresh(seen)
	return s.holds(h)
}

func (s *Store) holds(h uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.dirs[h]
	return ok
}

// putError counts one failed best-effort write, logging the first failure a
// handle sees: PutErrors alone has proven too quiet — a read-only or full
// disk silently degraded the store into pure recomputation.
func (s *Store) putError(key string, err error) {
	s.putErrors.Add(1)
	if s.errLogged.CompareAndSwap(false, true) && s.logf != nil {
		s.logf("store: put %q failed (first failure on this handle; later ones only counted): %v", key, err)
	}
}

// Put persists payload under key. Writes are best-effort: persistence
// failures are counted in Stats.PutErrors (and the first one per handle is
// logged) but never surfaced, because the store is an optimization layer
// and the caller already holds the computed value. The record reaches the
// handle's segment in one write before Put returns.
func (s *Store) Put(key string, payload []byte) {
	s.puts.Add(1)
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	if err := appendRecord(buf, key, payload); err != nil {
		s.putError(key, err)
		return
	}
	recd := [1]pending{{key, keyHash(key), 0}}
	s.commit(buf.Bytes(), recd[:])
}

// pending is one encoded record of a batch: its key, its hash, and where
// its frame sits in the batch buffer.
type pending struct {
	key string
	h   uint64
	at  int64
}

// PutBatch persists a sequence of records like Put, in order, with one
// write (and with SyncPuts one fsync) for the whole batch. A record whose
// payload is not valid JSON is a put error and is skipped; the others
// still land.
func (s *Store) PutBatch(recs iter.Seq2[string, []byte]) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	var recd []pending
	for key, payload := range recs {
		s.puts.Add(1)
		at := buf.Len()
		if err := appendRecord(buf, key, payload); err != nil {
			s.putError(key, err)
			continue
		}
		recd = append(recd, pending{key, keyHash(key), int64(at)})
	}
	s.commit(buf.Bytes(), recd)
}

// commit appends the encoded records in b to the handle's segment and
// indexes them.
func (s *Store) commit(b []byte, recd []pending) {
	if len(recd) == 0 {
		return
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	off, err := s.appendLocked(b)
	if err != nil {
		for _, p := range recd {
			s.putError(p.key, err)
		}
		return
	}
	s.mu.Lock()
	dir := ""
	for _, p := range recd {
		s.index[p.h] = locate(s.wseg, off+p.at)
		if d := dirOf(p.key); d != "" && d != dir {
			dir = d
			s.dirs[keyHash(d)] = struct{}{}
		}
	}
	s.records.Store(int64(len(s.index)))
	s.mu.Unlock()
}

// bufPool recycles batch buffers, so a Put allocates none.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= 1<<20 { // let an outsized batch's buffer go
		b.Reset()
		bufPool.Put(b)
	}
}

// appendLocked writes one batch of frames at the end of the handle's
// segment, creating the segment first if needed, and returns the batch's
// offset. A failed write (or fsync) is cut back off, so the segment never
// holds a partial frame in front of later whole ones. Callers hold wmu.
func (s *Store) appendLocked(b []byte) (int64, error) {
	if s.w != nil && s.wend+int64(len(b)) > 1<<offBits {
		s.releaseWriter() // full: the index cannot address more of it
	}
	if s.w == nil {
		if err := s.createSegment(); err != nil {
			return 0, err
		}
	}
	f := s.w.f.Load()
	off := s.wend
	_, err := f.WriteAt(b, off)
	if err == nil && s.syncPuts {
		if err = f.Sync(); err == nil {
			s.fsyncs.Add(1)
		}
	}
	if err != nil {
		if f.Truncate(off) != nil {
			s.releaseWriter() // cannot cut it back: the next Put starts a new segment
		}
		return 0, err
	}
	s.wend = off + int64(len(b))
	return off, nil
}

// createSegment starts the handle's own segment. Callers hold wmu.
func (s *Store) createSegment() error {
	s.mu.RLock()
	n := len(s.segs)
	s.mu.RUnlock()
	if n >= maxSegs {
		return fmt.Errorf("store: %d segments, the most one handle can index", n)
	}
	f, path, err := createSegmentFile(s.root)
	if err != nil {
		return err
	}
	if s.syncPuts {
		if syncDir(s.root) == nil {
			s.fsyncs.Add(1)
		}
	}
	// The handle indexes its own appends, so refreshes never rescan it.
	g := &segment{path: path, sealed: true}
	g.f.Store(f)
	s.mu.Lock()
	s.wseg = uint32(len(s.segs))
	s.segs = append(s.segs, g)
	s.known[filepath.Base(path)] = true
	s.mu.Unlock()
	s.w, s.wend = g, 0
	return nil
}

// Close releases the handle's file descriptors, and with them its
// segment's writer lock, so other handles know the segment is final. The
// handle stays usable: a later read reopens what it reads, and a later
// Put starts a new segment.
func (s *Store) Close() error {
	s.wmu.Lock()
	s.releaseWriter()
	s.wmu.Unlock()
	s.refreshMu.Lock()
	if s.reg != nil {
		s.reg.Close()
		s.reg = nil
	}
	s.refreshMu.Unlock()
	s.mu.RLock()
	segs := s.segs
	s.mu.RUnlock()
	var first error
	for _, g := range segs {
		if err := g.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ApproxLen returns the number of distinct keys in the handle's index. It
// is O(1), suitable for polling observability endpoints (/statsz);
// records other processes wrote since the handle's last rescan are not
// reflected, so a freshly opened handle gives the exact count.
func (s *Store) ApproxLen() int64 { return s.records.Load() }

// Stats snapshots the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Gets:      s.gets.Load(),
		Hits:      s.hits.Load(),
		Puts:      s.puts.Load(),
		Corrupt:   s.corrupt.Load(),
		PutErrors: s.putErrors.Load(),
		TornBytes: s.tornBytes.Load(),
		Fsyncs:    s.fsyncs.Load(),
	}
}
