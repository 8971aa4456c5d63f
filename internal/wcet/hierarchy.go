// The must-analysis walk: guaranteed WCET bounds on single-level caches and
// on two-level hierarchies (cachesim.Hierarchy) alike, cross-checked
// against the exact trace simulations (Simulate). A single-level platform
// is the hierarchy with no L2; there is one CFG walker, one line-cost
// function and one fixpoint driver.
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
// join), so sets are dynamically sized slices kept sorted by line. Like
// mustState, a nil *mayState (no L2 to classify for) stays nil through
// clone, equal and join.
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

func (s *mayState) clone() *mayState {
	if s == nil {
		return nil
	}
	n := &mayState{ways: s.ways, geom: s.geom, sets: make([][]mayEntry, len(s.sets))}
	for i, set := range s.sets {
		if len(set) > 0 {
			n.sets[i] = append([]mayEntry(nil), set...)
		}
	}
	return n
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

// maybe reports whether the line containing addr may be cached; false means
// a guaranteed miss.
func (s *mayState) maybe(addr uint32) bool {
	line := s.geom.Line(addr)
	for _, e := range s.sets[s.geom.Set(line)] {
		if e.line == line {
			return true
		}
	}
	return false
}

// access applies the may-domain LRU update: the accessed line moves to age
// 0, and every line whose lower bound does not exceed the accessed line's
// old lower bound ages by one (in every concretization attaining its lower
// bound such a line is younger than — or tied below — the accessed line, so
// it ages; lines bounded strictly older may stay put). Lines aged to the
// associativity limit may have been evicted and leave the state.
func (s *mayState) access(addr uint32) {
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
}

// mayJoin unions two may states (classic may-join: keep every line possibly
// cached in either, with the smaller age bound). Both runs are sorted by
// line, so the union is a single merge pass per set.
func mayJoin(a, b *mayState) *mayState {
	if a == nil {
		return nil
	}
	out := &mayState{ways: a.ways, geom: a.geom, sets: make([][]mayEntry, len(a.sets))}
	for set := range a.sets {
		sa, sb := a.sets[set], b.sets[set]
		if len(sa) == 0 && len(sb) == 0 {
			continue
		}
		merged := make([]mayEntry, 0, len(sa)+len(sb))
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
				age := sa[i].age
				if sb[j].age < age {
					age = sb[j].age
				}
				merged = append(merged, mayEntry{line: sa[i].line, age: age})
				i++
				j++
			}
		}
		merged = append(merged, sa[i:]...)
		merged = append(merged, sb[j:]...)
		out.sets[set] = merged
	}
	return out
}

// ---------------------------------------------------------------------------
// Combined state, line cost, CFG walker and fixpoint driver.
// ---------------------------------------------------------------------------

// hierState bundles the abstract states of the analysis. Without an L2
// only l1Must is set; l2Must is also nil for exclusive hierarchies (no
// guaranteed L2 hits). It is a value of three pointers, so clone and join
// allocate only the component states.
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

func (s hierState) clone() hierState {
	return hierState{l1Must: s.l1Must.clone(), l1May: s.l1May.clone(), l2Must: s.l2Must.clone()}
}

func (s hierState) equal(o hierState) bool {
	return s.l1Must.equal(o.l1Must) && s.l1May.equal(o.l1May) && s.l2Must.equal(o.l2Must)
}

func hierJoin(a, b hierState) hierState {
	return hierState{
		l1Must: join(a.l1Must, b.l1Must),
		l1May:  mayJoin(a.l1May, b.l1May),
		l2Must: join(a.l2Must, b.l2Must),
	}
}

// prices are the cycle costs of one fetch by the level that serves it,
// read once per analysis instead of from both cache geometries per line.
type prices struct{ hit, l2Hit, miss int64 }

func linePrices(cfg cachesim.Config, h cachesim.Hierarchy) prices {
	return prices{hit: int64(cfg.HitCycles), l2Hit: int64(h.L2.HitCycles), miss: int64(cfg.MissCycles)}
}

// hierLineCost classifies one line access against the state, returns its
// guaranteed cycle bound, and applies the abstract updates.
func hierLineCost(v program.Line, st *hierState, pr prices) int64 {
	// A guaranteed L1 hit never consults the L2. Anything else is bounded
	// by a guaranteed L2 hit when one holds (an L1 hit would be cheaper
	// yet) and by the memory latency otherwise.
	rest := int64(v.Fetches-1) * pr.hit
	c := pr.hit + rest
	if !st.l1Must.guaranteed(v.Addr) {
		c = pr.miss + rest
		if st.l2Must != nil {
			if st.l2Must.guaranteed(v.Addr) {
				c = pr.l2Hit + rest
			}
			if st.l1May.maybe(v.Addr) {
				// Uncertain L1 outcome: the L2 may or may not see the
				// access, so its must state moves to the join of both
				// possibilities.
				touched := st.l2Must.clone()
				touched.access(v.Addr)
				st.l2Must = join(touched, st.l2Must)
			} else {
				// Guaranteed L1 miss: the L2 is definitely consulted, so
				// its must state takes the full access transformer.
				st.l2Must.access(v.Addr)
			}
		}
	}
	// Whatever happened below it, the L1 ends up holding the line: hits
	// refresh it, misses fill it (both arrangements).
	st.l1Must.access(v.Addr)
	if st.l1May != nil {
		st.l1May.access(v.Addr)
	}
	return c
}

// analyzeHierCost walks the CFG computing a guaranteed worst-path cycle
// bound, threading the state. Branches take the max cost and join the
// out-states; loops are virtually unrolled (first iteration separate,
// remaining iterations from the per-iteration fixpoint).
func analyzeHierCost(n program.Node, st hierState, pr prices) (int64, hierState) {
	switch v := n.(type) {
	case nil:
		return 0, st
	case program.Line:
		c := hierLineCost(v, &st, pr)
		return c, st
	case program.Seq:
		var total int64
		for _, child := range v {
			var c int64
			c, st = analyzeHierCost(child, st, pr)
			total += c
		}
		return total, st
	case program.Loop:
		total, cur := analyzeHierCost(v.Body, st, pr)
		for k := 2; k <= v.Count; k++ {
			c, next := analyzeHierCost(v.Body, cur.clone(), pr)
			if next.equal(cur) {
				// Per-iteration fixpoint reached: all remaining
				// iterations cost the same.
				total += c * int64(v.Count-k+1)
				cur = next
				break
			}
			total += c
			cur = next
		}
		return total, cur
	case program.Branch:
		ct, stThen := analyzeHierCost(v.Then, st.clone(), pr)
		ce, stElse := analyzeHierCost(v.Else, st.clone(), pr)
		c := ct
		if ce > c {
			c = ce
		}
		return c, hierJoin(stThen, stElse)
	}
	panic(badNode(n))
}

// hierMustBounds returns the guaranteed cold WCET and the guaranteed warm
// WCET, the cost of the whole-program pass whose entry state is a fixpoint
// (steady state of back-to-back executions).
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
func hierMustBounds(p *program.Program, cfg cachesim.Config, h cachesim.Hierarchy) (cold, warm int64) {
	pr := linePrices(cfg, h)
	st := newHierState(cfg, h)
	cold, st = analyzeHierCost(p.Root, st, pr)

	prev := st
	for i := 0; i < 64; i++ {
		var c int64
		c, st = analyzeHierCost(p.Root, prev.clone(), pr)
		if st.equal(prev) {
			if c > cold {
				cold = c
			}
			return cold, c
		}
		prev = st
	}
	// No fixpoint within the cap (pathological ping-pong): fall back to the
	// trivially sound all-miss bound for both values.
	wc := allMissCost(p.Root, cfg)
	if wc < cold {
		wc = cold
	}
	return wc, wc
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
