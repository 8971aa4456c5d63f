package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frame"
)

// The on-disk side of the store: the record codec, segment files, and the
// scans that index them.

// loc is where a record's frame starts, packed into one word so an index
// entry costs 16 bytes: the segment number in the top bits, the byte
// offset in the low offBits.
type loc uint64

const (
	offBits = 44                  // offsets below 16 TiB
	maxSegs = 1 << (64 - offBits) // segment numbers below 2^20
	// readAhead is how much of a frame Get reads at once: all of a typical
	// record, and the head of a larger one, whose rest takes a second read.
	readAhead = 1024
)

func locate(seg uint32, off int64) loc { return loc(uint64(seg)<<offBits | uint64(off)) }

func (l loc) seg() uint32 { return uint32(l >> offBits) }

func (l loc) off() int64 { return int64(l & (1<<offBits - 1)) }

// appendRecord appends the frame of one record to b; on error b is left
// as it was.
func appendRecord(b *bytes.Buffer, key string, payload []byte) error {
	start := b.Len()
	b.Grow(frame.HeaderLen + 1 + binary.MaxVarintLen64 + len(key) + sha256.Size + len(payload))
	var head [frame.HeaderLen + 1 + binary.MaxVarintLen64]byte
	head[frame.HeaderLen] = Version
	n := frame.HeaderLen + 1 + binary.PutUvarint(head[frame.HeaderLen+1:], uint64(len(key)))
	b.Write(head[:n])
	b.WriteString(key)
	sumAt := b.Len()
	b.Write(make([]byte, sha256.Size))
	// Compact the payload and checksum the compacted bytes: exactly the
	// bytes stored and exactly the bytes a future Get re-hashes.
	if err := json.Compact(b, payload); err != nil {
		b.Truncate(start)
		return fmt.Errorf("payload not valid JSON: %w", err)
	}
	rec := b.Bytes()[start:]
	if len(rec)-frame.HeaderLen > maxRecord {
		b.Truncate(start)
		return fmt.Errorf("record of %d bytes over the %d-byte cap", len(rec)-frame.HeaderLen, maxRecord)
	}
	sum := sha256.Sum256(b.Bytes()[sumAt+sha256.Size:])
	copy(b.Bytes()[sumAt:], sum[:])
	frame.Seal(rec)
	return nil
}

// decodeRecord splits a frame body into its key, payload checksum and
// payload; ok=false for a body that is not a well-formed current-version
// record.
func decodeRecord(body []byte) (key, sum, payload []byte, ok bool) {
	if len(body) < 1 || body[0] != Version {
		return nil, nil, nil, false
	}
	kl, n := binary.Uvarint(body[1:])
	rest := body[1+max(n, 0):]
	if n <= 0 || kl > uint64(len(rest)) || uint64(len(rest))-kl <= sha256.Size {
		return nil, nil, nil, false
	}
	return rest[:kl], rest[kl : kl+sha256.Size], rest[kl+sha256.Size:], true
}

// verify classifies a CRC-valid frame body: a well-formed record whose
// payload hashes to its checksum, a checksum mismatch, or corrupt.
func verify(body []byte) verdict {
	_, sum, payload, ok := decodeRecord(body)
	if !ok {
		return recordCorrupt
	}
	if sha256.Sum256(payload) != [sha256.Size]byte(sum) {
		return recordSumMismatch
	}
	return recordOK
}

type verdict int

const (
	recordOK verdict = iota
	recordCorrupt
	recordSumMismatch
	recordMiss // not this key's record (hash collision), or unreadable: a plain miss
)

// createSegmentFile creates a new, exclusively locked segment file under
// root and announces it in the registry. Names sort by creation time, so a
// listing visits segments oldest first and a later record for a key
// supersedes an earlier one.
func createSegmentFile(root string) (*os.File, string, error) {
	name := fmt.Sprintf("%016x%08x%s", time.Now().UnixNano(), rand.Uint32(), segmentExt)
	path := filepath.Join(root, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, "", err
	}
	if err := lockExclusive(f); err == nil {
		if err = announce(root, name); err == nil {
			return f, path, nil
		}
	}
	f.Close()
	os.Remove(path)
	return nil, "", err
}

// announce appends a new segment's name to the registry.
func announce(root, name string) error {
	r, err := os.OpenFile(filepath.Join(root, registryName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = r.WriteString(name + "\n")
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir makes a directory's entries durable; best-effort, as not all
// file systems support it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// segment is one segment file as a handle sees it.
type segment struct {
	path string
	// f is the read descriptor, opened at the first read (for the handle's
	// own segment: the append descriptor, which holds the writer lock).
	f      atomic.Pointer[os.File]
	opener sync.Mutex

	// end is the offset after the last frame scanned, and sealed marks a
	// segment no one will append to again (its writer has gone, or it is
	// the handle's own); both are guarded by the handle's refreshMu.
	end    int64
	sealed bool
}

// file returns the segment's descriptor, opening it at the first call.
func (g *segment) file() (*os.File, error) {
	if f := g.f.Load(); f != nil {
		return f, nil
	}
	g.opener.Lock()
	defer g.opener.Unlock()
	if f := g.f.Load(); f != nil {
		return f, nil
	}
	f, err := os.Open(g.path)
	if err != nil {
		return nil, err
	}
	g.f.Store(f)
	return f, nil
}

// size is the segment file's current length, read through its descriptor
// without allocating (reads use pread, so the file position is free).
func (g *segment) size() (int64, error) {
	f, err := g.file()
	if err != nil {
		return 0, err
	}
	return f.Seek(0, io.SeekEnd)
}

func (g *segment) close() error {
	if f := g.f.Swap(nil); f != nil {
		return f.Close()
	}
	return nil
}

// read fetches and checks the frame at l, which the index holds for key's
// hash h, and returns a copy of its payload.
func (g *segment) read(l loc, key string, h uint64) ([]byte, verdict) {
	f, err := g.file()
	if err != nil {
		return nil, recordMiss // the segment is gone (a repair replaced it)
	}
	head := headPool.Get().(*[readAhead]byte)
	defer headPool.Put(head)
	n, err := f.ReadAt(head[:], l.off())
	if n < frame.HeaderLen {
		return nil, shortRead(err)
	}
	size := binary.LittleEndian.Uint32(head[:])
	if size == 0 || size > maxRecord {
		return nil, recordCorrupt
	}
	total := frame.HeaderLen + int(size)
	buf := head[:min(n, total)]
	if total > n {
		if end, err := f.Seek(0, io.SeekEnd); err != nil || l.off()+int64(total) > end {
			return nil, recordCorrupt // cut short: allocate nothing for it
		}
		buf = make([]byte, total)
		copy(buf, head[:n])
		if m, err := f.ReadAt(buf[n:], l.off()+int64(n)); m < total-n {
			return nil, shortRead(err)
		}
	}
	body, _, err := frame.Decode(buf, maxRecord)
	if err != nil {
		return nil, recordCorrupt
	}
	k, sum, payload, ok := decodeRecord(body)
	switch {
	case !ok:
		return nil, recordCorrupt
	case string(k) != key:
		if maphash.Bytes(keySeed, k) == h {
			return nil, recordMiss // another key with the same index hash
		}
		return nil, recordCorrupt
	case sha256.Sum256(payload) != [sha256.Size]byte(sum):
		return nil, recordSumMismatch
	}
	return bytes.Clone(payload), recordOK
}

// headPool recycles read-ahead buffers: a buffer handed to a read escapes,
// so a local array would cost an allocation per Get.
var headPool = sync.Pool{New: func() any { return new([readAhead]byte) }}

// shortRead classifies a read that ended inside a frame: at the end of the
// file the frame was cut short, which is corruption; any other error is a
// descriptor closed under the read, a plain miss.
func shortRead(err error) verdict {
	if err == io.EOF {
		return recordCorrupt
	}
	return recordMiss
}

// refresh brings the index up to date with what other writers appended
// since the handle last looked: segments created since the last listing,
// and the new tails of segments whose writers are still live. seen is the
// refresh count read before the caller's index lookup; if a refresh has
// started since, it saw everything the caller needs.
func (s *Store) refresh(seen uint64) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if !s.refreshes.CompareAndSwap(seen, seen+1) {
		return
	}
	// The registry is read through a descriptor kept from the first
	// refresh on, so a miss allocates nothing. A registry deleted under it
	// goes unnoticed and other writers' new segments read as misses: a
	// recomputation, as deleting any store file may cost.
	if s.reg == nil {
		s.reg, _ = os.Open(filepath.Join(s.root, registryName)) // nil until a writer creates it
	}
	size := int64(-1)
	if s.reg != nil {
		if n, err := s.reg.Seek(0, io.SeekEnd); err == nil {
			size = n
		}
	}
	s.list(size)
	s.mu.RLock()
	segs := s.segs
	s.mu.RUnlock()
	for i, g := range segs {
		if g.sealed {
			continue
		}
		if size, err := g.size(); err != nil || size > g.end {
			s.scan(uint32(i), g)
		}
	}
}

// registryStat is the registry's length, -1 if it does not exist.
func registryStat(root string) int64 {
	if info, err := os.Stat(filepath.Join(root, registryName)); err == nil {
		return info.Size()
	}
	return -1
}

// readerPool recycles segment readers and their read buffers across
// scans: a store opens, refreshes and scrubs far more often than it holds
// a scan open.
var readerPool = sync.Pool{New: func() any { return frame.NewReader(nil, maxRecord) }}

// list indexes the segments created since the last listing, unless the
// registry's length (size, -1 for none) says none were. Callers hold
// refreshMu (or, building a handle, are its only user).
func (s *Store) list(size int64) {
	if size == s.listed {
		return
	}
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return
	}
	s.listed = size
	for _, e := range entries { // sorted by name: oldest segment first
		name := e.Name()
		if !strings.HasSuffix(name, segmentExt) || e.IsDir() {
			continue
		}
		s.mu.RLock()
		known := s.known[name]
		s.mu.RUnlock()
		if known {
			continue
		}
		g := &segment{path: filepath.Join(s.root, name)}
		s.mu.Lock()
		i := uint32(len(s.segs))
		s.segs = append(s.segs, g)
		s.known[name] = true
		s.mu.Unlock()
		s.scan(i, g)
	}
}

// scan indexes the whole frames of segment i from g.end on. It checks each
// frame's CRC and record layout but not the payload checksum, which Get
// and Scrub verify. A damaged whole frame is counted and skipped; a torn
// tail stops the scan, and is counted once the segment's writer has gone.
// Callers hold refreshMu (or own the handle exclusively).
func (s *Store) scan(i uint32, g *segment) {
	if i >= maxSegs {
		g.sealed = true // beyond what the index can address
		return
	}
	f, err := os.Open(g.path)
	if err != nil {
		g.sealed = true // removed by a repair, which wrote its frames anew
		return
	}
	defer f.Close()
	// No writer lock held means no one will append again — unless the file
	// is still empty, as it is for a moment between its creation and its
	// writer taking the lock.
	sealed := g.sealed || unlockedByWriters(f)
	info, err := f.Stat()
	if err != nil {
		return
	}
	sealed = sealed && info.Size() > 0
	if _, err := f.Seek(g.end, io.SeekStart); err != nil {
		return
	}
	fr := readerPool.Get().(*frame.Reader)
	defer readerPool.Put(fr)
	fr.Reset(f)
	base := g.end
	// Index in batches, so the index lock is taken rarely and the scan
	// holds a bounded buffer however long the segment.
	var (
		found [256]struct {
			h uint64
			l loc
		}
		n int
		// dirs holds the hashes of the directories met since the last
		// flush; recent makes that once per run of keys, not once per key.
		dirs   []uint64
		recent recentDirs
	)
	flush := func() {
		s.mu.Lock()
		for _, e := range found[:n] {
			s.index[e.h] = e.l
		}
		for _, h := range dirs {
			s.dirs[h] = struct{}{}
		}
		s.records.Store(int64(len(s.index)))
		s.mu.Unlock()
		n, dirs = 0, dirs[:0]
	}
	for {
		at := fr.Offset()
		if base+at >= 1<<offBits {
			break
		}
		body, err := fr.Next()
		if err == nil {
			if key, _, _, ok := decodeRecord(body); ok {
				if n == len(found) {
					flush()
				}
				found[n].h = maphash.Bytes(keySeed, key)
				found[n].l = locate(i, base+at)
				n++
				if d, fresh := recent.lookup(key); fresh {
					dirs = append(dirs, maphash.Bytes(keySeed, d))
				}
				continue
			}
		} else if !errors.Is(err, frame.ErrChecksum) {
			if (errors.Is(err, frame.ErrShort) || errors.Is(err, frame.ErrLength)) && sealed {
				s.tornBytes.Add(info.Size() - base - fr.Offset())
			}
			break
		}
		s.corrupt.Add(1)
	}
	g.end = base + fr.Offset()
	g.sealed = sealed
	if n > 0 {
		flush()
	}
}

// recentDirs remembers the directories of the last few runs of keys a scan
// met. A segment holds a scenario's records in one run, or a few runs
// interleaved when concurrent scenarios share a handle, so most keys find
// their directory here with a prefix compare, and only a run's first key
// pays for the search for its last '/' and for hashing its directory.
type recentDirs struct {
	dirs [8][]byte
	next int // the slot the next new directory takes
}

// lookup returns key's directory and fresh=true when it is none of the
// recent ones, remembering it in place of the oldest; a key without '/'
// lies in no directory and returns fresh=false.
func (r *recentDirs) lookup(key []byte) (dir []byte, fresh bool) {
	for k := 1; k <= len(r.dirs); k++ { // newest first
		d := r.dirs[(r.next-k+len(r.dirs))%len(r.dirs)]
		if len(d) > 0 && bytes.HasPrefix(key, d) && bytes.IndexByte(key[len(d):], '/') < 0 {
			return d, false
		}
	}
	dir = key[:bytes.LastIndexByte(key, '/')+1]
	if len(dir) == 0 {
		return nil, false
	}
	r.dirs[r.next] = append(r.dirs[r.next][:0], dir...)
	r.next = (r.next + 1) % len(r.dirs)
	return dir, true
}
