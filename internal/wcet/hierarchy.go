// The must-analysis walk: guaranteed WCET bounds on single-level caches and
// on two-level hierarchies (cachesim.Hierarchy) alike, cross-checked
// against the exact trace simulations (Simulate). A single-level platform
// is the hierarchy with no L2; there is one CFG walker, one line-cost
// function and one fixpoint driver. On a single-level platform the walk
// prices every way count at once (LRU inclusion, see the package comment;
// Result.WarmByWays); with an L2 it prices the full L1 associativity only,
// since the L2 state depends on which accesses the L1 guarantees.
//
// Classifying an access against the L2 requires knowing whether the L1 is
// consulted at all, so with an L2 the analysis threads three abstract
// states (Hardy & Puaut's multi-level framing of the Ferdinand domains):
//
//   - an L1 must-cache (age upper bounds): guaranteed L1 hits;
//   - an L1 may-cache (age lower bounds, union join): a line absent from it
//     is guaranteed NOT in the L1, so the access is a guaranteed L1 miss
//     and the L2 is definitely consulted; and
//   - an L2 must-cache, updated with the full access transformer only on
//     guaranteed L1 misses, left untouched on guaranteed L1 hits, and moved
//     to the join of both possibilities when the L1 outcome is uncertain.
//
// Exclusive (victim-cache) hierarchies promote on L2 hits and demote L1
// victims, which breaks the monotone access transformer the must domain
// relies on; they are analyzed conservatively with no guaranteed L2 hits
// (every non-guaranteed-L1 access is bounded by the memory latency), which
// the exact simulation can only improve on.
//
// Without an L2 only the L1 must-cache is kept: the may-cache exists to
// decide whether the L2 sees an access, so a guaranteed L1 hit costs the
// hit price and anything else the miss price — the single-level rule.
package wcet

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/program"
)

func badNode(n program.Node) string { return fmt.Sprintf("wcet: unknown node type %T", n) }

// ---------------------------------------------------------------------------
// May-analysis: lower bounds on LRU ages, the dual of mustState.
// ---------------------------------------------------------------------------

// mayEntry is one (line, lower-bound age) pair of the abstract may-cache.
type mayEntry struct {
	line uint32
	age  int32
}

// mayState is the abstract may-cache: per set, every line possibly cached,
// with a lower bound on its LRU age. A line absent from its set is
// guaranteed not cached. Unlike the must domain, a set can track more lines
// than its associativity (several lines may share a lower bound after a
// join), so sets are dynamically sized slices kept sorted by line; a
// pooled state keeps their capacity. Like mustState, a nil *mayState (no
// L2 to classify for) stays nil through copyFrom, reset, equal and
// joinInto.
type mayState struct {
	ways int32
	geom cachesim.Geometry
	sets [][]mayEntry
}

func newMayState(cfg cachesim.Config) *mayState {
	return &mayState{
		ways: int32(cfg.Ways),
		geom: cfg.Geometry(),
		sets: make([][]mayEntry, cfg.Sets()),
	}
}

// copyFrom overwrites s with src, a state of the same geometry.
func (s *mayState) copyFrom(src *mayState) {
	if s == nil {
		return
	}
	for i, set := range src.sets {
		s.sets[i] = append(s.sets[i][:0], set...)
	}
}

// reset empties s: every line is guaranteed not cached.
func (s *mayState) reset() {
	if s == nil {
		return
	}
	for i := range s.sets {
		s.sets[i] = s.sets[i][:0]
	}
}

func (s *mayState) equal(o *mayState) bool {
	if s == nil || o == nil {
		return s == o
	}
	for i, set := range s.sets {
		if len(set) != len(o.sets[i]) {
			return false
		}
		for j, e := range set {
			if e != o.sets[i][j] {
				return false
			}
		}
	}
	return true
}

// access applies the may-domain LRU update and reports whether the line
// containing addr was possibly cached before it (false: a guaranteed
// miss). The accessed line moves to age 0, and every line whose lower
// bound does not exceed the accessed line's old lower bound ages by one
// (in every concretization attaining its lower bound such a line is
// younger than — or tied below — the accessed line, so it ages; lines
// bounded strictly older may stay put). Lines aged to the associativity
// limit may have been evicted and leave the state.
func (s *mayState) access(addr uint32) bool {
	line := s.geom.Line(addr)
	set := s.geom.Set(line)
	entries := s.sets[set]

	oldAge := s.ways // absent: guaranteed not cached, everything ages
	for _, e := range entries {
		if e.line == line {
			oldAge = e.age
			break
		}
	}
	w := 0
	for _, e := range entries {
		if e.line == line {
			continue // re-inserted at age 0 below
		}
		if e.age <= oldAge {
			e.age++
			if e.age >= s.ways {
				continue // possibly evicted: no longer possibly cached
			}
		}
		entries[w] = e
		w++
	}
	entries = entries[:w]
	// Insert the accessed line at age 0, keeping the run sorted by line.
	ins := len(entries)
	entries = append(entries, mayEntry{})
	for ins > 0 && entries[ins-1].line > line {
		entries[ins] = entries[ins-1]
		ins--
	}
	entries[ins] = mayEntry{line: line, age: 0}
	s.sets[set] = entries
	return oldAge < s.ways
}

// joinInto unions o into s in place (classic may-join: keep every line
// possibly cached in either, with the smaller age bound). Both runs are
// sorted by line, so the union is a single merge pass per set through the
// reusable buffer *buf.
func (s *mayState) joinInto(o *mayState, buf *[]mayEntry) {
	if s == nil {
		return
	}
	for set, sb := range o.sets {
		if len(sb) == 0 {
			continue
		}
		sa := s.sets[set]
		merged := (*buf)[:0]
		i, j := 0, 0
		for i < len(sa) && j < len(sb) {
			switch {
			case sa[i].line < sb[j].line:
				merged = append(merged, sa[i])
				i++
			case sa[i].line > sb[j].line:
				merged = append(merged, sb[j])
				j++
			default:
				merged = append(merged, mayEntry{line: sa[i].line, age: min(sa[i].age, sb[j].age)})
				i++
				j++
			}
		}
		merged = append(merged, sa[i:]...)
		merged = append(merged, sb[j:]...)
		s.sets[set] = append(sa[:0], merged...)
		*buf = merged
	}
}

// ---------------------------------------------------------------------------
// Combined state, line cost, CFG walker and fixpoint driver.
// ---------------------------------------------------------------------------

// hierState bundles the abstract states of the analysis. Without an L2
// only l1Must is set; l2Must is also nil for exclusive hierarchies (no
// guaranteed L2 hits). It is a value of three pointers, and the walker
// recycles the component states through its free list.
type hierState struct {
	l1Must *mustState
	l1May  *mayState
	l2Must *mustState
}

func newHierState(cfg cachesim.Config, h cachesim.Hierarchy) hierState {
	st := hierState{l1Must: newMustState(cfg)}
	if h.Enabled() {
		st.l1May = newMayState(cfg)
		if !h.Exclusive {
			st.l2Must = newMustState(h.L2)
		}
	}
	return st
}

func (s hierState) copyFrom(src hierState) {
	s.l1Must.copyFrom(src.l1Must)
	s.l1May.copyFrom(src.l1May)
	s.l2Must.copyFrom(src.l2Must)
}

func (s hierState) reset() {
	s.l1Must.reset()
	s.l1May.reset()
	s.l2Must.reset()
}

func (s hierState) equal(o hierState) bool {
	return s.l1Must.equal(o.l1Must) && s.l1May.equal(o.l1May) && s.l2Must.equal(o.l2Must)
}

// agreement is the L1 must states' agreement depth (mustState.agreement),
// or 0 when the may or L2 states differ. Those exist only on hierarchies,
// where the walk prices the full associativity alone, so there the depth
// reaches it exactly when the states are equal.
func (s hierState) agreement(o hierState) int32 {
	if !s.l1May.equal(o.l1May) || !s.l2Must.equal(o.l2Must) {
		return 0
	}
	return s.l1Must.agreement(o.l1Must)
}

// joinInto joins o into s in place, merging may sets through *buf.
func (s hierState) joinInto(o hierState, buf *[]mayEntry) {
	s.l1Must.joinInto(o.l1Must)
	s.l1May.joinInto(o.l1May, buf)
	s.l2Must.joinInto(o.l2Must)
}

// prices are the cycle costs of one fetch by the level that serves it,
// read once per analysis instead of from both cache geometries per line.
type prices struct{ hit, l2Hit, miss int64 }

func linePrices(cfg cachesim.Config, h cachesim.Hierarchy) prices {
	return prices{hit: int64(cfg.HitCycles), l2Hit: int64(h.L2.HitCycles), miss: int64(cfg.MissCycles)}
}

// walker is one must-analysis: it prices the way counts lo, lo+1, ...,
// ways of the L1 (entry k-lo of every cost vector is way count k) and owns
// the pools the walk draws its states and cost vectors from. A
// single-level walk prices every way count (lo == 1), whose warm bounds
// Analyze returns as Result.WarmByWays; with an L2 it prices the full
// associativity only (lo == ways).
type walker struct {
	pr    prices
	lo    int
	n     int // way counts priced: ways - lo + 1
	cfg   cachesim.Config
	hier  cachesim.Hierarchy
	free  []hierState // dead states, reused before a new one is made
	vecs  [][]int64   // dead cost vectors of length n
	merge []mayEntry  // may-join merge buffer

	// Initial backing of free and vecs: enough for the nesting depth of
	// typical programs, so the pools rarely grow.
	freeBuf [4]hierState
	vecBuf  [16][]int64
}

func newWalker(cfg cachesim.Config, h cachesim.Hierarchy) *walker {
	lo := 1
	if h.Enabled() {
		lo = cfg.Ways
	}
	w := &walker{pr: linePrices(cfg, h), lo: lo, n: cfg.Ways - lo + 1, cfg: cfg, hier: h}
	w.free, w.vecs = w.freeBuf[:0], w.vecBuf[:0]
	return w
}

// state returns a state the caller owns, with arbitrary contents: a dead
// one from the pool, or a new one when the pool is empty.
func (w *walker) state() hierState {
	n := len(w.free)
	if n == 0 {
		return newHierState(w.cfg, w.hier)
	}
	st := w.free[n-1]
	w.free = w.free[:n-1]
	return st
}

// empty returns a state with no guaranteed and no possible lines.
func (w *walker) empty() hierState {
	st := w.state()
	st.reset()
	return st
}

// copyOf returns a state equal to src that the caller owns.
func (w *walker) copyOf(src hierState) hierState {
	st := w.state()
	st.copyFrom(src)
	return st
}

// release returns a dead state to the pool.
func (w *walker) release(st hierState) { w.free = append(w.free, st) }

// vec returns a zeroed cost vector; putVec returns it to the pool. An
// empty pool is refilled with a block of eight vectors in one allocation.
func (w *walker) vec() []int64 {
	if len(w.vecs) == 0 {
		block := make([]int64, 8*w.n)
		for i := 0; i < 8; i++ {
			w.vecs = append(w.vecs, block[i*w.n:(i+1)*w.n:(i+1)*w.n])
		}
	}
	n := len(w.vecs)
	v := w.vecs[n-1]
	w.vecs = w.vecs[:n-1]
	clear(v)
	return v
}

func (w *walker) putVec(v []int64) { w.vecs = append(w.vecs, v) }

// line classifies one line access against the state, adds its guaranteed
// cycle bound under every priced way count to out, and applies the
// abstract updates.
func (w *walker) line(v program.Line, st *hierState, out []int64) {
	rest := int64(v.Fetches-1) * w.pr.hit
	hit, miss := w.pr.hit+rest, w.pr.miss+rest
	// Whatever happens below it, the L1 ends up holding the line: hits
	// refresh it, misses fill it (both arrangements).
	age := st.l1Must.access(v.Addr)
	if st.l1May != nil {
		maybe := st.l1May.access(v.Addr)
		// A guaranteed L1 hit never consults the L2. Anything else is
		// bounded by a guaranteed L2 hit when one holds (an L1 hit would
		// be cheaper yet) and by the memory latency otherwise.
		if st.l2Must != nil && int(age) >= st.l1Must.ways {
			// A guaranteed L1 miss definitely consults the L2, so its
			// must state takes the full access transformer; an uncertain
			// L1 outcome moves it to the join of both possibilities.
			var l2Age int32
			if maybe {
				l2Age = st.l2Must.accessUncertain(v.Addr)
			} else {
				l2Age = st.l2Must.access(v.Addr)
			}
			if int(l2Age) < st.l2Must.ways {
				miss = w.pr.l2Hit + rest
			}
		}
	}
	// Way count lo+j guarantees the L1 hit iff the line's age bound is
	// below it, so the first misses entries miss and the rest hit.
	misses := min(max(int(age)+1-w.lo, 0), len(out))
	for j := range out[:misses] {
		out[j] += miss
	}
	for j := misses; j < len(out); j++ {
		out[j] += hit
	}
}

// walk walks the CFG adding a guaranteed worst-path cycle bound per priced
// way count to out, threading the state: it consumes st and returns the
// out-state. Branches take the max cost per way count and join the
// out-states; loops are virtually unrolled (first iteration separate,
// remaining iterations until the per-iteration fixpoint of the full
// state).
func (w *walker) walk(n program.Node, st hierState, out []int64) hierState {
	switch v := n.(type) {
	case nil:
		return st
	case program.Line:
		w.line(v, &st, out)
		return st
	case program.Seq:
		for _, child := range v {
			st = w.walk(child, st, out)
		}
		return st
	case program.Loop:
		cur := w.walk(v.Body, st, out)
		if v.Count < 2 {
			return cur
		}
		c := w.vec()
		for k := 2; k <= v.Count; k++ {
			next := w.walk(v.Body, w.copyOf(cur), c)
			if next.equal(cur) {
				// Per-iteration fixpoint reached: all remaining
				// iterations cost the same.
				for j, cj := range c {
					out[j] += cj * int64(v.Count-k+1)
				}
				w.release(next)
				break
			}
			for j, cj := range c {
				out[j] += cj
			}
			clear(c)
			w.release(cur)
			cur = next
		}
		w.putVec(c)
		return cur
	case program.Branch:
		ct, ce := w.vec(), w.vec()
		then := w.walk(v.Then, w.copyOf(st), ct)
		els := w.walk(v.Else, st, ce)
		for j := range out {
			out[j] += max(ct[j], ce[j])
		}
		then.joinInto(els, &w.merge)
		w.release(els)
		w.putVec(ce)
		w.putVec(ct)
		return then
	}
	panic(badNode(n))
}

// hierMustBounds returns the guaranteed cold WCET and the guaranteed warm
// WCET of every priced way count (entry k-lo for way count k); the warm
// bound is the cost of the whole-program pass whose entry
// state is a fixpoint (steady state of back-to-back executions). Way count
// k takes the first pass whose entry and exit states agree below age k:
// from that pass on its truncated state, and hence its cost, no longer
// changes. Passes stop once every priced way count has its fixpoint.
//
// With an L2 the warm bound can exceed the cold bound: the cold pass knows
// the caches start empty, so every access is a guaranteed L1 miss that
// definitely reaches the L2, building a strong L2 must state (many
// guaranteed L2 hits); in steady state the may analysis turns those
// accesses "uncertain", the L2 must state weakens through joins, and the
// warm bound can rise above cold. Both bounds stay sound individually, and
// the Result contract (Egu >= 0, Eq. 5) is restored by raising the cold
// bound to the warm one — raising an upper bound is always sound. Without
// an L2 the warm pass starts from a must state no weaker than the empty
// one, so warm never exceeds cold; a degenerate L2 (hit cost == memory
// cost) prices every pass the same way, so the clamp is a no-op and the
// degenerate equivalence stays bit-exact.
func (w *walker) hierMustBounds(p *program.Program) (cold, warm []int64) {
	cold, warm = w.vec(), w.vec()
	prev := w.walk(p.Root, w.empty(), cold)
	c := w.vec()
	done := 0 // way counts lo .. lo+done-1 have their warm bound
	for i := 0; i < 64 && done < w.n; i++ {
		st := w.walk(p.Root, w.copyOf(prev), c)
		for d := int(st.agreement(prev)); done < w.n && w.lo+done <= d; done++ {
			warm[done] = c[done]
			cold[done] = max(cold[done], c[done])
		}
		w.release(prev)
		prev = st
		clear(c)
	}
	if done == w.n {
		return cold, warm
	}
	// No fixpoint within the cap (pathological ping-pong): fall back to the
	// trivially sound all-miss bound for both values.
	wc := allMissCost(p.Root, w.cfg)
	for j := done; j < w.n; j++ {
		cold[j] = max(cold[j], wc)
		warm[j] = cold[j]
	}
	return cold, warm
}

// allMissCost is the structural worst case with no cache guarantees at all:
// every line access pays the memory latency. It bounds any run from any
// cache state.
func allMissCost(n program.Node, cfg cachesim.Config) int64 {
	switch v := n.(type) {
	case nil:
		return 0
	case program.Line:
		return int64(cfg.MissCycles) + int64(v.Fetches-1)*int64(cfg.HitCycles)
	case program.Seq:
		var total int64
		for _, child := range v {
			total += allMissCost(child, cfg)
		}
		return total
	case program.Loop:
		return int64(v.Count) * allMissCost(v.Body, cfg)
	case program.Branch:
		ct, ce := allMissCost(v.Then, cfg), allMissCost(v.Else, cfg)
		if ce > ct {
			return ce
		}
		return ct
	}
	panic(badNode(n))
}
