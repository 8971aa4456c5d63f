// Package frame is the record framing shared by the on-disk logs: the
// coordinator's journal (internal/fabric) and the store's segment files
// (internal/store). A framed file is a sequence of
//
//	frame := lenLE32 | crc32c(payload)LE32 | payload
//
// written by appends only. A crash mid-append can only leave a torn tail —
// a short header, a short payload, or a whole-length frame whose checksum
// fails — so a reader that stops at the first bad frame stops at the last
// whole one, and everything after it is the torn tail.
package frame

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"
)

// HeaderLen is the size of a frame header: the payload length and its
// CRC-32C, both little-endian.
const HeaderLen = 8

var table = crc32.MakeTable(crc32.Castagnoli)

// Frame-level faults. ErrShort and ErrLength leave the reader unable to
// find the next frame; after ErrChecksum the bad frame has been consumed
// whole, so a reader may go on to the next one.
var (
	ErrShort    = errors.New("frame: short frame")       // the bytes end inside a frame
	ErrLength   = errors.New("frame: bad length")        // zero, or over the reader's cap
	ErrChecksum = errors.New("frame: checksum mismatch") // whole frame, payload CRC wrong
)

// Checksum is the CRC-32C (Castagnoli) of p, the frame's payload checksum.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, table) }

// Append appends the frame of payload to dst and returns the extended
// slice.
func Append(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, Checksum(payload))
	return append(dst, payload...)
}

// Seal fills in the header of a frame built in place: b is HeaderLen
// reserved bytes followed by the payload.
func Seal(b []byte) {
	p := b[HeaderLen:]
	binary.LittleEndian.PutUint32(b, uint32(len(p)))
	binary.LittleEndian.PutUint32(b[4:], Checksum(p))
}

// Decode checks the frame at the start of b, whose payload may be at most
// max bytes, and returns the payload and the frame's total length. With
// ErrChecksum the length is still returned: the frame is whole, only its
// bytes are wrong.
func Decode(b []byte, max int) (payload []byte, n int, err error) {
	if len(b) < HeaderLen {
		return nil, 0, ErrShort
	}
	size := binary.LittleEndian.Uint32(b)
	if size == 0 || uint64(size) > uint64(max) {
		return nil, 0, ErrLength
	}
	n = HeaderLen + int(size)
	if len(b) < n {
		return nil, 0, ErrShort
	}
	payload = b[HeaderLen:n]
	if binary.LittleEndian.Uint32(b[4:]) != Checksum(payload) {
		return nil, n, ErrChecksum
	}
	return payload, n, nil
}

// Reader streams the frames of a file through a bounded buffer: a fixed
// read buffer plus one scratch frame that grows to the largest frame
// present.
type Reader struct {
	r   *bufio.Reader
	max int
	off int64
	buf []byte
}

// NewReader reads frames of at most max payload bytes from r.
func NewReader(r io.Reader, max int) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10), max: max}
}

// Reset makes the reader read r from its start, keeping its buffers.
func (r *Reader) Reset(rd io.Reader) {
	r.r.Reset(rd)
	r.off = 0
}

// Offset is the number of bytes consumed: the end of the last frame Next
// returned or skipped with ErrChecksum.
func (r *Reader) Offset() int64 { return r.off }

// Next returns the next frame's payload, valid until the following call.
// It returns io.EOF at a clean end, ErrShort or ErrLength at a torn tail,
// ErrChecksum for a whole frame whose payload is damaged (the reader has
// moved past it), or the underlying read error.
func (r *Reader) Next() ([]byte, error) {
	hdr, err := r.r.Peek(HeaderLen)
	if len(hdr) < HeaderLen {
		switch {
		case len(hdr) == 0 && err == io.EOF:
			return nil, io.EOF
		case err == io.EOF:
			return nil, ErrShort
		}
		return nil, err
	}
	size := binary.LittleEndian.Uint32(hdr)
	if size == 0 || uint64(size) > uint64(r.max) {
		return nil, ErrLength
	}
	n := HeaderLen + int(size)
	// Grow the scratch frame with the bytes actually read, so a damaged
	// length cannot make the reader allocate more than the file holds.
	b := r.buf[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n, max(2*cap(b), 4096))-len(b))
		}
		m, err := r.r.Read(b[len(b):min(cap(b), n)])
		b = b[:len(b)+m]
		if err == io.EOF {
			r.buf = b
			return nil, ErrShort
		}
		if err != nil {
			return nil, err
		}
	}
	r.buf = b
	r.off += int64(n)
	if binary.LittleEndian.Uint32(b[4:]) != Checksum(b[HeaderLen:]) {
		return nil, ErrChecksum
	}
	return b[HeaderLen:], nil
}
