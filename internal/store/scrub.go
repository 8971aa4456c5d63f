package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/frame"
)

// ScrubReport classifies every record a Scrub walk visited. The read path
// already degrades all of these to misses one record at a time; Scrub
// exists so an operator can learn the store's health in one pass — and,
// with repair, restore it — instead of discovering rot as a slow stream of
// recomputations.
type ScrubReport struct {
	Segments         int   `json:"segments"`          // segment files visited
	Scanned          int   `json:"scanned"`           // whole frames visited
	OK               int   `json:"ok"`                // checksum-verified records
	Corrupt          int   `json:"corrupt"`           // failed frame CRC, or a malformed or unknown-version record
	ChecksumMismatch int   `json:"checksum_mismatch"` // payload no longer hashes to its recorded sum
	TornTails        int   `json:"torn_tails"`        // finished writers' segments that end inside a frame
	TornBytes        int64 `json:"torn_bytes"`        // bytes in those torn tails
	Quarantined      int   `json:"quarantined"`       // bad records moved aside (repair mode)
	Rewritten        int   `json:"rewritten"`         // segments rewritten without their bad frames and torn tails (repair mode)
}

// Bad reports how many problems the walk found (repairing them does not
// make them un-found).
func (r ScrubReport) Bad() int {
	return r.Corrupt + r.ChecksumMismatch + r.TornTails
}

// String renders the report as a one-line operator summary.
func (r ScrubReport) String() string {
	s := fmt.Sprintf("scanned %d record(s) in %d segment(s): %d ok, %d corrupt, %d checksum-mismatch, %d torn tail(s) of %d byte(s)",
		r.Scanned, r.Segments, r.OK, r.Corrupt, r.ChecksumMismatch, r.TornTails, r.TornBytes)
	if r.Quarantined > 0 || r.Rewritten > 0 {
		s += fmt.Sprintf("; repaired: %d quarantined, %d segment(s) rewritten", r.Quarantined, r.Rewritten)
	}
	return s
}

// count files one record's verdict.
func (r *ScrubReport) count(v verdict) {
	switch v {
	case recordOK:
		r.OK++
	case recordCorrupt:
		r.Corrupt++
	case recordSumMismatch:
		r.ChecksumMismatch++
	}
}

// Scrub verifies every record in the store: every frame of every segment
// (CRC, record layout, version, payload checksum), and the tail of every
// segment whose writer has gone. With repair, each damaged segment of a
// finished writer is rewritten without its bad frames and torn tail, whose
// bytes are kept under <root>/quarantine/<segment> for postmortem. Files
// that are not segments hold no records and go unvisited. A damaged
// segment of this handle's own is released first (its next Put starts a
// new one) and repaired too; segments other live handles still append to
// are reported but left alone. Repairing is always safe: records are
// deterministic and recomputable, so the worst cost of a false positive is
// one recomputation.
//
// Scrub is an offline/admin operation (O(records), reads every frame); the
// serving path never calls it. It is safe against a live store: a rewrite
// lands under a new segment name before the old segment is removed, so a
// concurrent reader finds every good record in one or the other.
func (s *Store) Scrub(repair bool) (ScrubReport, error) {
	var rep ScrubReport
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return rep, fmt.Errorf("store: scrub: %w", err)
	}
	fr := readerPool.Get().(*frame.Reader)
	defer readerPool.Put(fr)
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, segmentExt) && !e.IsDir() {
			rep.Segments++
			s.scrubSegment(name, fr, repair, &rep)
		}
	}
	if rep.Rewritten > 0 {
		s.reindex()
	}
	return rep, nil
}

// releaseWriter closes the handle's own segment for appends; callers hold
// wmu.
func (s *Store) releaseWriter() {
	if s.w != nil {
		s.w.close()
		s.w = nil
	}
}

// releaseOwn releases the handle's own segment if it is the one at path,
// and reports whether it was.
func (s *Store) releaseOwn(path string) bool {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.w == nil || s.w.path != path {
		return false
	}
	s.releaseWriter()
	return true
}

// scrubSegment verifies one segment file and, with repair, rewrites it if
// it is damaged and no other handle appends to it.
func (s *Store) scrubSegment(name string, fr *frame.Reader, repair bool, rep *ScrubReport) {
	path := filepath.Join(s.root, name)
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	live := !unlockedByWriters(f)
	info, err := f.Stat()
	if err != nil {
		return
	}
	fr.Reset(f)
	bad := 0
	for {
		body, err := fr.Next()
		if err != nil && !errors.Is(err, frame.ErrChecksum) {
			break
		}
		v := recordCorrupt
		if err == nil {
			v = verify(body)
		}
		rep.Scanned++
		rep.count(v)
		if v != recordOK {
			bad++
		}
	}
	tail := info.Size() - fr.Offset()
	if live {
		tail = 0 // possibly an append in flight
	}
	if tail > 0 {
		rep.TornTails++
		rep.TornBytes += tail
	}
	if !repair || bad == 0 && tail == 0 || live && !s.releaseOwn(path) {
		return
	}
	quarantined, err := s.rewrite(path)
	if err != nil {
		if s.logf != nil {
			s.logf("store: scrub: repairing %s: %v", path, err)
		}
		return
	}
	rep.Quarantined += quarantined
	rep.Rewritten++
}

// rewrite replaces a damaged segment whose writer has gone: its good
// frames go to a new segment, its bad frames and torn tail to quarantine,
// and then the old file is removed. It returns how many bad frames it
// quarantined. A crash part-way leaves both segments, which read the same.
func (s *Store) rewrite(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var good, junk []byte
	bad, off := 0, 0
	for off < len(data) {
		body, n, err := frame.Decode(data[off:], maxRecord)
		if n == 0 {
			break // the torn tail
		}
		if err == nil && verify(body) == recordOK {
			good = append(good, data[off:off+n]...)
		} else {
			junk = append(junk, data[off:off+n]...)
			bad++
		}
		off += n
	}
	junk = append(junk, data[off:]...)
	if len(good) > 0 {
		nf, _, err := createSegmentFile(s.root)
		if err != nil {
			return 0, err
		}
		_, werr := nf.Write(good)
		serr := nf.Sync()
		if cerr := nf.Close(); werr != nil || serr != nil || cerr != nil {
			os.Remove(nf.Name())
			return 0, fmt.Errorf("write: w=%v s=%v c=%v", werr, serr, cerr)
		}
	}
	qdir := filepath.Join(s.root, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(qdir, filepath.Base(path)), junk, 0o644); err != nil {
		return 0, err
	}
	return bad, os.Remove(path)
}

// reindex rebuilds the handle's index from scratch after a repair replaced
// segments. Callers must not hold wmu or refreshMu.
func (s *Store) reindex() {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.releaseWriter() // its segment number is about to change
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	fresh := newHandle(s.root, Options{})
	s.mu.Lock()
	old := s.segs
	s.index, s.dirs, s.segs, s.known = fresh.index, fresh.dirs, fresh.segs, fresh.known
	s.records.Store(fresh.records.Load())
	s.mu.Unlock()
	s.listed = fresh.listed
	for _, g := range old {
		g.close()
	}
}
