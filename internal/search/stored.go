package search

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/engine/evalcache"
	"repro/internal/sched"
)

// outcomeRecord is the persistent form of an Outcome. Pall is stored twice:
// PallBits carries the exact IEEE-754 bits (a JSON uint64 round-trips
// exactly, so warm-store runs reproduce cold-store values bit for bit) and
// Pall is the human-readable rendering for people inspecting store files.
type outcomeRecord struct {
	PallBits uint64  `json:"pall_bits"`
	Pall     float64 `json:"pall"`
	Feasible bool    `json:"feasible"`
}

// OutcomeCodec serializes search Outcomes for the persistent cache tier,
// preserving Pall bit-exactly.
func OutcomeCodec() evalcache.Codec[Outcome] {
	return evalcache.Codec[Outcome]{
		Encode: func(o Outcome) ([]byte, error) {
			return json.Marshal(outcomeRecord{
				PallBits: math.Float64bits(o.Pall),
				Pall:     o.Pall,
				Feasible: o.Feasible,
			})
		},
		Decode: func(data []byte) (Outcome, error) {
			var r outcomeRecord
			if err := json.Unmarshal(data, &r); err != nil {
				return Outcome{}, fmt.Errorf("search: outcome record: %w", err)
			}
			return Outcome{Pall: math.Float64frombits(r.PallBits), Feasible: r.Feasible}, nil
		},
	}
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
	return evalcache.NewTiered(0, eval, backend, namespace, OutcomeCodec())
}
