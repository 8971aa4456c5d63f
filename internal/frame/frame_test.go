package frame

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

func TestAppendDecodeRoundTrip(t *testing.T) {
	var file []byte
	payloads := [][]byte{[]byte("a"), []byte(`{"op":"submit"}`), bytes.Repeat([]byte{0xff}, 300)}
	for _, p := range payloads {
		file = Append(file, p)
	}
	off := 0
	for i, want := range payloads {
		got, n, err := Decode(file[off:], 1<<10)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %q, %v; want %q", i, got, err, want)
		}
		off += n
	}
	if off != len(file) {
		t.Fatalf("decoded %d of %d bytes", off, len(file))
	}

	built := make([]byte, HeaderLen, HeaderLen+3)
	built = append(built, "xyz"...)
	Seal(built)
	if !bytes.Equal(built, Append(nil, []byte("xyz"))) {
		t.Fatal("Seal and Append frame the same payload differently")
	}
}

// TestReaderStopsAtTornTail pins the torn-tail rule for every way a tail
// can be torn: the whole frames before it read back, Offset ends at the
// last whole frame, and the error names the fault.
func TestReaderStopsAtTornTail(t *testing.T) {
	whole := Append(Append(nil, []byte("one")), []byte("two"))
	third := Append(nil, []byte("three"))
	zeroLen := append(append([]byte{}, whole...), make([]byte, HeaderLen)...)
	cases := []struct {
		name string
		file []byte
		want error
	}{
		{"clean", whole, io.EOF},
		{"short-header", append(append([]byte{}, whole...), third[:5]...), ErrShort},
		{"short-payload", append(append([]byte{}, whole...), third[:len(third)-1]...), ErrShort},
		{"zero-length", zeroLen, ErrLength},
		{"over-cap", append(append([]byte{}, whole...), Append(nil, make([]byte, 65))...), ErrLength},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(tc.file), 64)
			var got []string
			for {
				p, err := r.Next()
				if err != nil {
					if !errors.Is(err, tc.want) {
						t.Fatalf("stopped with %v, want %v", err, tc.want)
					}
					break
				}
				got = append(got, string(p))
			}
			if len(got) != 2 || got[0] != "one" || got[1] != "two" {
				t.Fatalf("read %q before the tail, want [one two]", got)
			}
			if r.Offset() != int64(len(whole)) {
				t.Fatalf("Offset %d, want %d", r.Offset(), len(whole))
			}
		})
	}
}

// TestReaderSkipsDamagedFrame pins that a whole frame with a bad checksum
// is consumed: the reader reports it and the next frame still reads.
func TestReaderSkipsDamagedFrame(t *testing.T) {
	file := Append(Append(Append(nil, []byte("one")), []byte("two")), []byte("three"))
	file[HeaderLen+3+HeaderLen] ^= 0x01 // first payload byte of "two"
	r := NewReader(bytes.NewReader(file), 64)
	var got []string
	bad := 0
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrChecksum) {
			bad++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(p))
	}
	if bad != 1 || len(got) != 2 || got[0] != "one" || got[1] != "three" {
		t.Fatalf("read %q with %d damaged frame(s), want [one three] and 1", got, bad)
	}
	if _, _, err := Decode(file[HeaderLen+3:], 64); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Decode of the damaged frame: %v, want ErrChecksum", err)
	}
}

// TestReaderDamagedLengthAllocatesLittle pins that a torn header claiming
// a huge frame costs what the file holds, not what the header claims.
func TestReaderDamagedLengthAllocatesLittle(t *testing.T) {
	file := []byte{0xff, 0xff, 0xff, 0x03, 0, 0, 0, 0, 'x', 'y'} // claims ~64 MiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(bytes.NewReader(file), 1<<26).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrShort) {
		t.Fatalf("Next = %v, want ErrShort", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("reading a torn 10-byte frame allocated %d bytes", got)
	}
}
