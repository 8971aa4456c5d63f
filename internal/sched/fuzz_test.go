package sched

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseSchedule: every input either errors or yields exactly n entries
// in [1, MaxPackedCoord] that PackPoint accepts, and re-joining the entries
// with "," parses back to the same schedule. n ranges over the lengths a
// PointKey can hold.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []struct {
		text string
		n    uint8
	}{
		{"3,2,3", 3}, {" 1 , 1,1 ", 3}, {"255", 1}, {"256", 1}, {"0,1", 2},
		{"+4,-2", 2}, {"1,,2", 3}, {"007,8", 2}, {"1e3", 1}, {"", 1},
	} {
		f.Add(seed.text, seed.n)
	}
	f.Fuzz(func(t *testing.T, text string, nb uint8) {
		n := 1 + int(nb)%(PointKeyBytes-pointKeyHeader)
		s, err := ParseSchedule(text, n)
		if err != nil {
			return
		}
		if len(s) != n {
			t.Fatalf("%q: %d entries, want %d", text, len(s), n)
		}
		parts := make([]string, n)
		for i, v := range s {
			if v < 1 || v > MaxPackedCoord {
				t.Fatalf("%q: entry %d = %d outside [1, %d]", text, i, v, MaxPackedCoord)
			}
			parts[i] = strconv.Itoa(v)
		}
		if _, err := PackPoint(nil, false, s, nil); err != nil {
			t.Fatalf("%q: parsed %v does not pack: %v", text, s, err)
		}
		back, err := ParseSchedule(strings.Join(parts, ","), n)
		if err != nil || !back.Equal(s) {
			t.Fatalf("%q: %v re-joined parses to %v (%v)", text, s, back, err)
		}
	})
}
