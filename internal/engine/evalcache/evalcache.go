// Package evalcache provides a sharded, mutex-striped memoization cache for
// expensive schedule evaluations. It is the shared caching layer of the
// sweep engine (see internal/engine and README.md): exhaustive and hybrid
// searches wrap their EvalFunc in a Cache so the holistic-design evaluation
// of any schedule (m1, ..., mn) runs at most once per cache, no matter how
// many walks, starts, or workers request it concurrently.
//
// The cache is generic over both the key and the evaluation result type so
// it can back the search layer (sched.Schedule -> search.Outcome), the
// framework layer (sched.JointSchedule -> *core.ScheduleEval), and the joint
// cache-partition co-design layer (sched.JointSchedule -> outcome) without
// import cycles. Any key type exposing a canonical Key() string works.
//
// A cache optionally carries a second, persistent tier (NewTiered): on a
// memory miss the Backend — in production internal/store's disk store — is
// consulted before the evaluator runs, and freshly executed results are
// written back. The key invariant of the tiered mode is that it is
// invisible to result values and to evaluation attribution: the boolean
// returned by Get reports "this call materialized the entry in memory"
// whether the entry came from the disk tier or from executing the
// evaluator, so search walks charge evaluations identically on a cold and
// on a warm store, and a sweep's reported tables are bit-identical across
// cold-store, warm-store, and resumed runs. A backend record that fails to
// decode is treated as a miss and recomputed, never served.
package evalcache

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Keyed is the key contract: Key returns a canonical string identity for
// the evaluation input (equal inputs must render equal keys, distinct
// inputs distinct keys). sched.Schedule and sched.JointSchedule implement
// it.
type Keyed interface {
	Key() string
}

// DefaultShards is the shard count used when NewCache is given n <= 0.
// Sixteen stripes keep lock contention negligible for the worker-pool sizes
// the engine uses while staying cheap to allocate per scenario.
const DefaultShards = 16

// Backend is the optional persistent second tier of a Cache: a key/value
// byte store consulted on memory misses and written back after executions.
// internal/store.Store implements it. Both methods must be safe for
// concurrent use; Get returning ok=false for any reason (absent, corrupt,
// stale) simply routes the request to the evaluator, and Put is
// best-effort.
type Backend interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte)
}

// Codec serializes cache values for the persistent tier. Encode/Decode
// must round-trip exactly (bit-identical values), or warm-store runs would
// diverge from cold ones; store float64s by their IEEE-754 bits when in
// doubt. An Encode error skips persistence for that value; a Decode error
// falls back to re-execution.
type Codec[V any] struct {
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
}

// entry is one memoized evaluation. The first requester of a key creates
// the entry and evaluates; later requesters block on done, so duplicate
// concurrent evaluations of the same schedule never run.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

type shard[V any] struct {
	mu sync.Mutex
	m  map[string]*entry[V]
}

// Cache memoizes a key-addressed evaluation function across shards.
type Cache[K Keyed, V any] struct {
	eval   func(K) (V, error)
	shards []shard[V]
	seed   maphash.Seed

	// Persistent tier (nil backend = memory-only). namespace prefixes every
	// backend key so independent evaluation spaces (different tasksets,
	// platforms, objectives, budgets) sharing one store never collide.
	backend   Backend
	namespace string
	codec     Codec[V]

	hits     atomic.Int64
	misses   atomic.Int64
	diskHits atomic.Int64
}

// NewCache wraps eval in a memory-only cache with the given shard count
// (DefaultShards when n <= 0).
func NewCache[K Keyed, V any](n int, eval func(K) (V, error)) *Cache[K, V] {
	if n <= 0 {
		n = DefaultShards
	}
	c := &Cache[K, V]{eval: eval, shards: make([]shard[V], n), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*entry[V])
	}
	return c
}

// NewTiered wraps eval in a two-tier cache: memory in front of the given
// persistent backend, with every backend key prefixed by namespace and
// values serialized through codec. A nil backend degrades to NewCache.
func NewTiered[K Keyed, V any](n int, eval func(K) (V, error), b Backend, namespace string, codec Codec[V]) *Cache[K, V] {
	c := NewCache(n, eval)
	c.backend = b
	c.namespace = namespace
	c.codec = codec
	return c
}

func (c *Cache[K, V]) shardFor(key string) *shard[V] {
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// Get returns the memoized evaluation of s, computing it on first request.
// Concurrent requests for the same key coalesce: exactly one computes,
// the rest wait. An evaluation error is memoized like a value so a failing
// input is not retried within one cache lifetime.
//
// The boolean reports whether this call materialized the entry (a memory
// miss) — by executing the evaluator or by loading the persistent tier;
// callers use it to attribute distinct-evaluation counts to the walk that
// paid for the evaluation. Counting a disk load exactly like an execution
// is what keeps per-walk counts, and hence all reported tables,
// bit-identical between cold-store and warm-store runs.
func (c *Cache[K, V]) Get(s K) (V, bool, error) {
	key := s.Key()
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		<-e.done
		c.hits.Add(1)
		return e.val, false, e.err
	}
	e := &entry[V]{done: make(chan struct{})}
	sh.m[key] = e
	sh.mu.Unlock()

	c.misses.Add(1)
	// Close done even if the evaluator panics: otherwise the entry would
	// wedge every future waiter on this key. A panicking evaluation is
	// memoized as an error so coalesced waiters fail loudly instead of
	// receiving a zero value.
	finished := false
	defer func() {
		if !finished {
			e.err = fmt.Errorf("evalcache: evaluation of %s panicked", key)
		}
		close(e.done)
	}()
	if c.backend != nil {
		if data, ok := c.backend.Get(c.namespace + key); ok {
			if v, err := c.codec.Decode(data); err == nil {
				c.diskHits.Add(1)
				e.val = v
				finished = true
				return e.val, true, nil
			}
			// Undecodable record (stale payload schema, corruption the
			// envelope check could not catch): recompute and overwrite.
		}
	}
	e.val, e.err = c.eval(s)
	finished = true
	if e.err == nil && c.backend != nil {
		if data, err := c.codec.Encode(e.val); err == nil {
			c.backend.Put(c.namespace+key, data)
		}
	}
	return e.val, true, e.err
}

// Len returns the number of distinct keys evaluated (or in flight).
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot of cache effectiveness. Hits and
// Misses describe the memory tier, so they are independent of whether a
// persistent tier is attached or warm; DiskHits counts the subset of
// Misses that the persistent tier satisfied without executing the
// evaluator.
type Stats struct {
	Hits     int64
	Misses   int64
	DiskHits int64
}

// Lookups returns the total number of Get calls observed.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

// Executions returns the number of lookups that ran the evaluator: memory
// misses not satisfied by the persistent tier.
func (s Stats) Executions() int64 { return s.Misses - s.DiskHits }

// HitRate returns memory hits / lookups, or 0 when the cache was never
// used. It is stable across cold- and warm-store runs by construction.
func (s Stats) HitRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Hits) / float64(l)
	}
	return 0
}

// Stats snapshots the hit/miss counters.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), DiskHits: c.diskHits.Load()}
}
