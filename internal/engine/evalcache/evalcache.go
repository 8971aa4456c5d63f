// Package evalcache provides a sharded, mutex-striped memoization cache for
// expensive schedule evaluations. It is the shared caching layer of the
// sweep engine (see internal/engine and README.md): exhaustive and hybrid
// searches wrap their EvalFunc in a Cache so the holistic-design evaluation
// of any schedule (m1, ..., mn) runs at most once per cache, no matter how
// many walks, starts, or workers request it concurrently.
//
// The cache is generic over the point type, its memory-tier key and the
// evaluation result, so it backs the search layer (sched.Schedule ->
// search.Outcome), the framework layer (sched.JointSchedule ->
// *core.ScheduleEval), the joint and multi-core co-design layers, and the
// HTTP service's string-keyed caches without import cycles.
//
// A point carries two identities (Keyed). MemKey is a fixed-size comparable
// value — for search points the packed sched.PointKey — that keys the
// memory tier: building it allocates nothing, so a memory hit costs no
// allocation at all. Key is the canonical string rendering; the cache
// builds it only on a memory miss with a persistent tier attached (as the
// backend key) and for error messages. The two must agree: equal MemKeys
// exactly when Key strings are equal. A point whose MemKey cannot be formed
// makes Get fail with that error; there is no string-keyed fallback.
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
//
// The memory tier keeps only what is read again. A shard's map holds one
// pointer-free slot per key — the value and a pending/done/failed state —
// so an uncontended miss inserts a pending slot and completes it with one
// more map write, and for a pointer-free V the collector never scans the
// map. The rare state, a pending key's wait channel and a failed key's
// memoized error, lives in a per-shard side map created on first need.
// GetLast serves the last reader of a cache, an exact pass whose points are
// distinct and are not requested again: its misses resolve exactly like
// Get's, persistent tier and write-back included, and count alike in
// Stats and Len, but insert nothing.
//
// The evaluator runs on the caller's point. It must not retain that point
// (or any slice inside it) past the call: the searchers pass views into
// reused buffers. Whatever an evaluation keeps, it copies.
package evalcache

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Keyed is the point contract. Key returns the canonical string identity of
// the evaluation input; MemKey returns the memory-tier identity, a
// comparable value equal for two points exactly when their Key strings are
// equal, or an error when the point cannot be keyed in memory.
// sched.Schedule, sched.JointSchedule and search.CorePoint implement it
// with M = sched.PointKey; StringKey implements it for plain strings.
type Keyed[M comparable] interface {
	Key() string
	MemKey() (M, error)
}

// StringKey adapts a plain string to the key contract: the string is its
// own memory key.
type StringKey string

// Key returns the string.
func (k StringKey) Key() string { return string(k) }

// MemKey returns the string; it never fails.
func (k StringKey) MemKey() (string, error) { return string(k), nil }

// DefaultShards is every cache's shard count. Sixteen stripes keep lock
// contention negligible for the worker-pool sizes the engine uses while
// staying cheap to allocate per scenario.
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

// Slot states. A key's slot is pending from its first miss until the
// evaluation completes, then done or failed for the cache's lifetime.
const (
	pending uint8 = iota
	done
	failed
)

// slot is one memoized evaluation, stored by value in its shard's map. It
// holds no pointer of its own, so for a pointer-free V (search.Outcome)
// the garbage collector never scans the map.
type slot[V any] struct {
	val   V
	state uint8
}

// side is the rarely needed state of a key, kept out of its slot: the
// channel its waiters block on while it is pending, and its memoized error
// once it has failed.
type side struct {
	wait chan struct{}
	err  error
}

// shard is one lock stripe. The first requester of a key inserts a pending
// slot and evaluates; a later requester that finds it pending creates the
// side map (only then) and the key's wait channel and blocks on it, so
// duplicate concurrent evaluations never run and an uncontended miss
// allocates nothing beyond its map slot.
type shard[M comparable, V any] struct {
	mu   sync.Mutex
	m    map[M]slot[V]
	side map[M]side // nil until a key is waited on or fails
}

// Cache memoizes a key-addressed evaluation function across shards. K is
// the point type, M its memory-tier key (see Keyed), V the result.
type Cache[K Keyed[M], M comparable, V any] struct {
	eval   func(K) (V, error)
	shards []shard[M, V]
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
	// lastMisses counts the GetLast misses, which Len adds to the slots.
	lastMisses atomic.Int64
}

// NewCache wraps eval in a memory-only cache of DefaultShards shards.
func NewCache[K Keyed[M], M comparable, V any](eval func(K) (V, error)) *Cache[K, M, V] {
	c := &Cache[K, M, V]{eval: eval, shards: make([]shard[M, V], DefaultShards), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].m = make(map[M]slot[V])
	}
	return c
}

// NewTiered wraps eval in a two-tier cache: memory in front of the given
// persistent backend, with every backend key prefixed by namespace and
// values serialized through codec. A nil backend degrades to NewCache.
func NewTiered[K Keyed[M], M comparable, V any](eval func(K) (V, error), b Backend, namespace string, codec Codec[V]) *Cache[K, M, V] {
	c := NewCache(eval)
	c.backend = b
	c.namespace = namespace
	c.codec = codec
	return c
}

func (c *Cache[K, M, V]) shardFor(key M) *shard[M, V] {
	return &c.shards[maphash.Comparable(c.seed, key)%uint64(len(c.shards))]
}

// Get returns the memoized evaluation of s, computing it on first request.
// Concurrent requests for the same key coalesce: exactly one computes,
// the rest wait. An evaluation error is memoized like a value so a failing
// input is not retried within one cache lifetime. A point whose memory key
// cannot be formed fails without touching the cache or its counters.
//
// The boolean reports whether this call materialized the entry (a memory
// miss) — by executing the evaluator or by loading the persistent tier;
// callers use it to attribute distinct-evaluation counts to the walk that
// paid for the evaluation. Counting a disk load exactly like an execution
// is what keeps per-walk counts, and hence all reported tables,
// bit-identical between cold-store and warm-store runs.
//
// A hit allocates nothing; only a miss with a persistent tier attached
// renders the string key.
func (c *Cache[K, M, V]) Get(s K) (V, bool, error) {
	mk, err := s.MemKey()
	if err != nil {
		var zero V
		return zero, false, err
	}
	sh := c.shardFor(mk)
	sh.mu.Lock()
	if e, ok := sh.m[mk]; ok {
		return c.hit(sh, mk, e)
	}
	sh.m[mk] = slot[V]{}
	sh.mu.Unlock()

	c.misses.Add(1)
	// Complete the slot even if the evaluator panics: otherwise it would
	// wedge every future waiter on this key. A panicking evaluation is
	// memoized as an error so coalesced waiters fail loudly instead of
	// receiving a zero value.
	var (
		val      V
		evalErr  error
		finished bool
	)
	defer func() {
		if !finished {
			evalErr = fmt.Errorf("evalcache: evaluation of %s panicked", s.Key())
		}
		sh.complete(mk, val, evalErr)
	}()
	val, evalErr = c.resolve(s)
	finished = true
	return val, true, evalErr
}

// GetLast is Get for a point its caller will not request again: an exact
// pass that runs after every other reader of the cache, over points that
// are distinct within the pass. A hit, and a wait on a pending key, are
// Get's. A miss also resolves as in Get — the persistent tier, then the
// evaluator, with write-back — and counts a miss (and a disk hit when the
// store answers) and reports true, but keeps nothing in memory: the point
// is never read again, so its slot would only cost an insert, a rehash
// and garbage-collector work. Len still counts it.
//
// The caller's promise is what keeps every counter equal to Get's: a
// later Get of the same point evaluates it again (a second miss), and a
// concurrent request for it would run a second evaluation instead of
// waiting. A failed evaluation is returned, not memoized.
func (c *Cache[K, M, V]) GetLast(s K) (V, bool, error) {
	mk, err := s.MemKey()
	if err != nil {
		var zero V
		return zero, false, err
	}
	sh := c.shardFor(mk)
	sh.mu.Lock()
	if e, ok := sh.m[mk]; ok {
		return c.hit(sh, mk, e)
	}
	sh.mu.Unlock()

	c.misses.Add(1)
	c.lastMisses.Add(1)
	val, err := c.resolve(s)
	return val, true, err
}

// hit serves a key found in its shard, whose lock the caller holds: at
// once when the slot is complete, else after waiting for the requester
// evaluating it. It releases the lock.
func (c *Cache[K, M, V]) hit(sh *shard[M, V], mk M, e slot[V]) (V, bool, error) {
	if e.state == pending {
		if sh.side == nil {
			sh.side = make(map[M]side)
		}
		sd := sh.side[mk]
		if sd.wait == nil {
			sd.wait = make(chan struct{})
			sh.side[mk] = sd
		}
		sh.mu.Unlock()
		<-sd.wait
		sh.mu.Lock()
		e = sh.m[mk]
	}
	var err error
	if e.state == failed {
		err = sh.side[mk].err
	}
	sh.mu.Unlock()
	c.hits.Add(1)
	return e.val, false, err
}

// complete records the outcome of key mk's evaluation in its slot, in one
// map write when no requester waited and the evaluation succeeded, and
// wakes the waiters.
func (sh *shard[M, V]) complete(mk M, val V, err error) {
	var wait chan struct{}
	sh.mu.Lock()
	if err == nil {
		sh.m[mk] = slot[V]{val: val, state: done}
		if sh.side != nil {
			wait = sh.side[mk].wait
			delete(sh.side, mk)
		}
	} else {
		sh.m[mk] = slot[V]{val: val, state: failed}
		if sh.side == nil {
			sh.side = make(map[M]side)
		}
		wait = sh.side[mk].wait
		sh.side[mk] = side{err: err}
	}
	sh.mu.Unlock()
	if wait != nil {
		close(wait)
	}
}

// resolve computes a memory miss: the persistent tier first, then the
// evaluator, writing a freshly executed value back. It panics if the
// evaluator does.
func (c *Cache[K, M, V]) resolve(s K) (V, error) {
	var key string
	if c.backend != nil {
		key = c.namespace + s.Key()
		if data, ok := c.backend.Get(key); ok {
			if v, err := c.codec.Decode(data); err == nil {
				c.diskHits.Add(1)
				return v, nil
			}
			// Undecodable record (stale payload schema, corruption the
			// store's record checks could not catch): recompute and
			// overwrite.
		}
	}
	val, err := c.eval(s)
	if err == nil && c.backend != nil {
		if data, err := c.codec.Encode(val); err == nil {
			c.backend.Put(key, data)
		}
	}
	return val, err
}

// Len returns the number of distinct keys evaluated (or in flight): the
// keys held in memory plus the GetLast misses, each a key requested once.
func (c *Cache[K, M, V]) Len() int {
	n := int(c.lastMisses.Load())
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

// Lookups returns the total number of Get and GetLast calls observed.
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
func (c *Cache[K, M, V]) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), DiskHits: c.diskHits.Load()}
}
