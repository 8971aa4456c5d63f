package search

import (
	"bytes"
	"errors"
	"math"
	"strconv"

	"repro/internal/engine/evalcache"
	"repro/internal/sched"
)

// An outcome record is the persistent form of an Outcome, one line of JSON:
//
//	{"pall_bits":<uint64>,"pall":<float64>,"feasible":<bool>}
//
// Pall is stored twice: pall_bits carries its exact IEEE-754 bits (a
// decimal uint64 round-trips exactly, so warm-store runs reproduce
// cold-store values bit for bit) and pall is the human-readable rendering
// for people inspecting store files. The bytes are exactly those
// encoding/json writes for a struct of those three fields in that order —
// the form every existing store holds, and the oracle stored_test.go pins
// the codec against — so no store needs migrating.
const (
	recPallBits = `{"pall_bits":`
	recPall     = `,"pall":`
	recFeasible = `,"feasible":`

	// recMaxLen bounds a record's length: the three keys, a 20-digit
	// uint64, a float of at most 25 bytes (-0.0000012345678901234567),
	// "false" and the closing brace.
	recMaxLen = len(recPallBits) + 20 + len(recPall) + 25 + len(recFeasible) + len("false}")
)

// errNonCanonical rejects a record the encoder could not have written.
// It is one value, not built per call, because a store of foreign or
// corrupt records would otherwise pay an allocation per read.
var errNonCanonical = errors.New("search: outcome record is not in canonical form")

// OutcomeCodec serializes search Outcomes for the persistent cache tier,
// preserving Pall bit-exactly. The encoder is canonical and writes the same
// bytes as encoding/json would; a NaN or infinite Pall, which JSON cannot
// carry, is an error, so that value is not persisted. The decoder accepts
// only records the encoder writes: anything else — other spacing, field
// order, number spelling, a pall that disagrees with pall_bits — is
// errNonCanonical, and the cache recomputes that value once and overwrites
// the record.
func OutcomeCodec() evalcache.Codec[Outcome] {
	return evalcache.Codec[Outcome]{
		Encode: func(o Outcome) ([]byte, error) {
			if !finite(o.Pall) {
				return nil, errors.New("search: outcome record: unsupported value: " + strconv.FormatFloat(o.Pall, 'g', -1, 64))
			}
			return appendOutcome(make([]byte, 0, recMaxLen), o), nil
		},
		Decode: decodeOutcome,
	}
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendOutcome appends the canonical record of o, whose Pall is finite,
// to b.
func appendOutcome(b []byte, o Outcome) []byte {
	b = append(b, recPallBits...)
	b = strconv.AppendUint(b, math.Float64bits(o.Pall), 10)
	b = append(b, recPall...)
	b = appendJSONFloat(b, o.Pall)
	b = append(b, recFeasible...)
	b = strconv.AppendBool(b, o.Feasible)
	return append(b, '}')
}

// appendJSONFloat appends a finite f as encoding/json renders a float64
// (ES6 number-to-string): the shortest digits that round-trip, in 'e'
// notation below 1e-6 and from 1e21 up in magnitude, with a single-digit
// negative exponent unpadded (1e-7, not 1e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// decodeOutcome reads a canonical record: it parses pall_bits and the
// feasible flag, then requires the input to equal the record the encoder
// writes for them, which checks every other byte, pall's rendering
// included, at the cost of one float formatting on the stack.
func decodeOutcome(data []byte) (Outcome, error) {
	if !bytes.HasPrefix(data, []byte(recPallBits)) {
		return Outcome{}, errNonCanonical
	}
	var bits uint64
	i := len(recPallBits)
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		d := uint64(data[i] - '0')
		if bits > (math.MaxUint64-d)/10 {
			return Outcome{}, errNonCanonical
		}
		bits = bits*10 + d
	}
	o := Outcome{
		Pall:     math.Float64frombits(bits),
		Feasible: bytes.HasSuffix(data, []byte(recFeasible+"true}")),
	}
	var buf [recMaxLen]byte
	if !finite(o.Pall) || !bytes.Equal(appendOutcome(buf[:0], o), data) {
		return Outcome{}, errNonCanonical
	}
	return o, nil
}

// NewTiered wraps eval in a memoization cache with a persistent second
// tier: outcomes are stored in backend under namespace-prefixed point keys,
// so a later process (or a concurrent shard) sharing the same backend skips
// re-executing evaluations. A nil backend degrades to a memory-only cache.
//
// The schedule, joint and multi-core caches of one evaluation space may
// share a namespace without risk of serving a wrong record: joint keys of
// shared points equal their plain schedule keys by design
// (sched.JointSchedule.Key) and a shared point's outcome equals the plain
// schedule outcome by construction, while core-point keys carry their
// application-subset prefix ("c[0 2]|"), which no schedule or joint key can
// produce.
func NewTiered[P evalcache.Keyed[sched.PointKey]](eval func(P) (Outcome, error), backend evalcache.Backend, namespace string) *PointCache[P] {
	return evalcache.NewTiered(eval, backend, namespace, OutcomeCodec())
}
