package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame"
)

// FuzzEnvelopeDecode throws hostile segment bytes at the read path. The
// input is a record body: the segment holds it once inside a CRC-valid
// frame, which exercises the record decoder, and once more raw, which
// exercises the framing. Open and Get must never panic, and Get must
// serve exactly what the reference walk below accepts — the last whole,
// CRC-valid, well-formed frame for the key, if its payload checksum
// holds — and nothing else. Anything accepted must survive a re-Put/re-Get
// round trip; anything rejected must heal on re-Put. Seeds cover valid,
// checksum-mismatched, truncated, garbled and wrong-version records; the
// committed corpus under testdata/fuzz adds multi-frame, torn, CRC-damaged
// and malformed-length segments.
func FuzzEnvelopeDecode(f *testing.F) {
	const key = "fuzz-key"
	valid := recordBody(key, []byte(`{"x":1}`))
	f.Add(valid)
	mismatched := bytes.Clone(valid)
	mismatched[len(mismatched)-2] = '2'
	f.Add(mismatched)
	f.Add(valid[:10])
	f.Add([]byte("\x00\xff\xfe garbage"))
	wrongVersion := bytes.Clone(valid)
	wrongVersion[0] = 9
	f.Add(wrongVersion)
	f.Add(frame.Append(nil, valid))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := append(frame.Append(nil, data), data...)
		if err := os.WriteFile(filepath.Join(dir, "0000000000000000"+segmentExt), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		want, wantOK := referenceGet(seg, key)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got, ok := s.Get(key) // must not panic, whatever the bytes
		if ok != wantOK || !bytes.Equal(got, want) {
			t.Fatalf("Get = %q, %v; the reference walk accepts %q, %v", got, ok, want, wantOK)
		}
		if !ok {
			// Invalid reads as a miss; the degrade contract also promises a
			// recompute-and-overwrite heals the key.
			s.Put(key, []byte(`{"healed":true}`))
			if healed, ok := s.Get(key); !ok || !bytes.Equal(healed, []byte(`{"healed":true}`)) {
				t.Fatalf("re-Put did not heal a rejected record: ok=%v payload=%s", ok, healed)
			}
			return
		}
		// Accepted payloads round-trip: what Get served, Put can persist and
		// Get serves again, bit-identical.
		s.Put(key, got)
		if again, ok := s.Get(key); !ok || !bytes.Equal(again, got) {
			t.Fatalf("round trip changed payload:\n got %s (ok=%v)\nwant %s", again, ok, got)
		}
	})
}

// referenceGet is the read contract spelled out over a whole segment in
// memory: damaged whole frames are skipped, a torn tail ends the walk, the
// last well-formed frame for key wins, and it is served only if its
// payload checksum holds.
func referenceGet(seg []byte, key string) ([]byte, bool) {
	var last []byte
	for off := 0; off < len(seg); {
		body, n, err := frame.Decode(seg[off:], maxRecord)
		if errors.Is(err, frame.ErrChecksum) {
			off += n
			continue
		}
		if err != nil {
			break
		}
		off += n
		if k, _, _, ok := decodeRecord(body); ok && string(k) == key {
			last = body
		}
	}
	if last == nil || verify(last) != recordOK {
		return nil, false
	}
	_, _, payload, _ := decodeRecord(last)
	return payload, true
}
