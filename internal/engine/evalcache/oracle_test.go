package evalcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/sched"
)

// oracleKeys is the key set of FuzzCacheMatchesOracle; its last key's
// evaluation fails, so memoized errors are part of every run.
const oracleKeys = 6

// oracleOp is one lookup of an oracle sequence: key k through GetLast or
// Get.
type oracleOp struct {
	key  int
	last bool
}

// oracleSequence decodes fuzz bytes into a sequence that keeps GetLast's
// contract: byte b looks up key b mod oracleKeys, through GetLast when its
// high bit is set, and a GetLast that is a key's first request (a miss)
// retires the key, dropping its later lookups.
func oracleSequence(ops []byte) []oracleOp {
	var seen, retired [oracleKeys]bool
	var seq []oracleOp
	for _, b := range ops {
		op := oracleOp{key: int(b) % oracleKeys, last: b&0x80 != 0}
		if retired[op.key] {
			continue
		}
		if op.last && !seen[op.key] {
			retired[op.key] = true
		}
		seen[op.key] = true
		seq = append(seq, op)
	}
	return seq
}

// oracleRun is everything a sequence observes of a cache.
type oracleRun struct {
	Results         []string
	Len             int
	Stats           Stats
	Evals           int
	BackendGets     int
	BackendPuts     int
	BackendPayloads map[string]string
}

// runOracle plays seq against a fresh cache, memory-only or tiered over an
// in-memory backend that stored seeds: bit k holds key k's record, bit 6
// replaces key 0's with an undecodable one. With useLast false every
// lookup is a Get, the oracle.
func runOracle(seq []oracleOp, tiered bool, stored uint8, useLast bool) oracleRun {
	var run oracleRun
	eval := func(s sched.Schedule) (int, error) {
		run.Evals++
		if s[0] == oracleKeys {
			return -1, errors.New("boom")
		}
		return 10 * s[0], nil
	}
	c := NewCache(2, eval)
	var b *memBackend
	if tiered {
		b = newMemBackend()
		for k := 0; k < oracleKeys; k++ {
			if stored&(1<<k) != 0 {
				data, _ := json.Marshal(100 + k)
				b.m["ns/"+sched.Schedule{k + 1}.Key()] = data
			}
		}
		if stored&(1<<6) != 0 {
			b.m["ns/"+sched.Schedule{1}.Key()] = []byte("not json")
		}
		c = NewTiered(2, eval, b, "ns/", intCodec())
	}
	for _, op := range seq {
		get := c.Get
		if op.last && useLast {
			get = c.GetLast
		}
		v, executed, err := get(sched.Schedule{op.key + 1})
		run.Results = append(run.Results, fmt.Sprintf("%d %v %v", v, executed, err))
	}
	run.Len, run.Stats = c.Len(), c.Stats()
	if b != nil {
		run.BackendGets, run.BackendPuts = b.gets, b.puts
		run.BackendPayloads = map[string]string{}
		for k, v := range b.m {
			run.BackendPayloads[k] = string(v)
		}
	}
	return run
}

// FuzzCacheMatchesOracle checks GetLast against Get: over any sequence
// that never requests a key again after its GetLast miss, every value,
// attribution flag, error, Len, Hits, Misses and DiskHits, the evaluator's
// executions and the backend's traffic and contents equal those of the
// same sequence looked up through Get alone, memory-only and tiered.
func FuzzCacheMatchesOracle(f *testing.F) {
	f.Add([]byte{0x80, 0x01, 0x81, 0x02, 0x02, 0x85}, uint8(0))
	f.Add([]byte{0x00, 0x80, 0x83, 0x03, 0x05, 0x05, 0x84}, uint8(0x15))
	f.Add([]byte{0x85, 0x80, 0x81, 0x82, 0x83, 0x84}, uint8(0x7f))
	f.Fuzz(func(t *testing.T, ops []byte, stored uint8) {
		seq := oracleSequence(ops)
		for _, tiered := range []bool{false, true} {
			got := runOracle(seq, tiered, stored, true)
			want := runOracle(seq, tiered, stored, false)
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			if string(g) != string(w) {
				t.Fatalf("tiered=%v, sequence %v:\nGetLast run %s\nGet run     %s", tiered, seq, g, w)
			}
		}
	})
}
