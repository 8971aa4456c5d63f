package resilience

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// Jitter produces decorrelated-jitter sleep intervals for polling loops
// (the AWS "decorrelated jitter" schedule): each interval is drawn
// uniformly from [base, 3*previous], capped. A fleet of workers polling a
// coordinator on the same nominal interval desynchronizes within a few
// draws instead of thundering in lockstep, and sustained idleness backs
// off toward the cap on its own.
//
// The stream is seeded, so a worker's poll schedule is a deterministic
// function of (seed, draw index). All methods are safe for concurrent use.
type Jitter struct {
	mu   sync.Mutex
	base time.Duration
	cap  time.Duration
	prev time.Duration
	rng  *rand.Rand
}

// SeedOf folds a name (a worker identity, a job ID) into a deterministic,
// non-zero seed for jitter and retry streams: two names never share a
// schedule, and each name's schedule is reproducible.
func SeedOf(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	if seed := int64(h.Sum64()); seed != 0 {
		return seed
	}
	return 1
}

// NewJitter builds a decorrelated-jitter source: intervals start at base
// and never exceed cap (cap <= base pins every draw to base — jitter
// disabled). Seed selects the deterministic stream.
func NewJitter(base, cap time.Duration, seed int64) *Jitter {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if cap < base {
		cap = base
	}
	return &Jitter{base: base, cap: cap, prev: base, rng: rand.New(rand.NewSource(seed))}
}

// Next draws the next sleep interval.
func (j *Jitter) Next() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	hi := 3 * j.prev
	if hi > j.cap {
		hi = j.cap
	}
	d := j.base
	if hi > j.base {
		d += time.Duration(j.rng.Int63n(int64(hi - j.base + 1)))
	}
	j.prev = d
	return d
}

// Reset drops the interval back to base — call it after useful work so the
// next idle wait starts short again.
func (j *Jitter) Reset() {
	j.mu.Lock()
	j.prev = j.base
	j.mu.Unlock()
}
