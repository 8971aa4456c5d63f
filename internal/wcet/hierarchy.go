// Multi-level must-analysis: guaranteed WCET bounds on two-level cache
// hierarchies (cachesim.Hierarchy), cross-checked against the exact
// HierCache trace simulation exactly like the single-level pair.
//
// Classifying an access against the L2 requires knowing whether the L1 is
// consulted at all, so the hierarchy analysis threads three abstract states
// (Hardy & Puaut's multi-level framing of the Ferdinand domains):
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
// join), so sets are dynamically sized slices kept sorted by line.
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
	n := &mayState{ways: s.ways, geom: s.geom, sets: make([][]mayEntry, len(s.sets))}
	for i, set := range s.sets {
		if len(set) > 0 {
			n.sets[i] = append([]mayEntry(nil), set...)
		}
	}
	return n
}

func (s *mayState) equal(o *mayState) bool {
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
// Combined hierarchy state and the multi-level cost walker.
// ---------------------------------------------------------------------------

// hierState bundles the three abstract states of the multi-level analysis.
// l2Must is nil for exclusive hierarchies (no guaranteed L2 hits).
type hierState struct {
	l1Must *mustState
	l1May  *mayState
	l2Must *mustState
}

func newHierState(cfg cachesim.Config, h cachesim.Hierarchy) *hierState {
	st := &hierState{l1Must: newMustState(cfg), l1May: newMayState(cfg)}
	if !h.Exclusive {
		st.l2Must = newMustState(h.L2)
	}
	return st
}

func (s *hierState) clone() *hierState {
	n := &hierState{l1Must: s.l1Must.clone(), l1May: s.l1May.clone()}
	if s.l2Must != nil {
		n.l2Must = s.l2Must.clone()
	}
	return n
}

func (s *hierState) equal(o *hierState) bool {
	if !s.l1Must.equal(o.l1Must) || !s.l1May.equal(o.l1May) {
		return false
	}
	if (s.l2Must == nil) != (o.l2Must == nil) {
		return false
	}
	return s.l2Must == nil || s.l2Must.equal(o.l2Must)
}

func hierJoin(a, b *hierState) *hierState {
	out := &hierState{l1Must: join(a.l1Must, b.l1Must), l1May: mayJoin(a.l1May, b.l1May)}
	if a.l2Must != nil {
		out.l2Must = join(a.l2Must, b.l2Must)
	}
	return out
}

// hierLineCost classifies one line access against the hierarchy state,
// returns its guaranteed cycle bound, and applies the abstract updates.
func hierLineCost(v program.Line, st *hierState, cfg cachesim.Config, h cachesim.Hierarchy) int64 {
	hit1 := int64(cfg.HitCycles)
	var c int64
	switch {
	case st.l1Must.guaranteed(v.Addr):
		// Guaranteed L1 hit: the L2 is not consulted.
		c = int64(v.Fetches) * hit1
	case !st.l1May.maybe(v.Addr):
		// Guaranteed L1 miss: the L2 is definitely consulted, so its must
		// state takes the full access transformer.
		if st.l2Must != nil && st.l2Must.guaranteed(v.Addr) {
			c = int64(h.L2.HitCycles) + int64(v.Fetches-1)*hit1
		} else {
			c = int64(cfg.MissCycles) + int64(v.Fetches-1)*hit1
		}
		if st.l2Must != nil {
			st.l2Must.access(v.Addr)
		}
	default:
		// Uncertain L1 outcome. The worst cost is still bounded by a
		// guaranteed L2 hit when one holds (an L1 hit would be cheaper
		// yet); the L2 may or may not see the access, so its must state
		// moves to the join of both possibilities.
		if st.l2Must != nil && st.l2Must.guaranteed(v.Addr) {
			c = int64(h.L2.HitCycles) + int64(v.Fetches-1)*hit1
		} else {
			c = int64(cfg.MissCycles) + int64(v.Fetches-1)*hit1
		}
		if st.l2Must != nil {
			touched := st.l2Must.clone()
			touched.access(v.Addr)
			st.l2Must = join(touched, st.l2Must)
		}
	}
	// Whatever happened below it, the L1 ends up holding the line: hits
	// refresh it, misses fill it (both arrangements).
	st.l1Must.access(v.Addr)
	st.l1May.access(v.Addr)
	return c
}

// analyzeHierCost is analyzeCost over the combined hierarchy state: same
// CFG walk, same virtual loop unrolling, same branch max + join.
func analyzeHierCost(n program.Node, st *hierState, cfg cachesim.Config, h cachesim.Hierarchy) (int64, *hierState) {
	switch v := n.(type) {
	case nil:
		return 0, st
	case program.Line:
		return hierLineCost(v, st, cfg, h), st
	case program.Seq:
		var total int64
		for _, child := range v {
			var c int64
			c, st = analyzeHierCost(child, st, cfg, h)
			total += c
		}
		return total, st
	case program.Loop:
		total, cur := analyzeHierCost(v.Body, st, cfg, h)
		for k := 2; k <= v.Count; k++ {
			c, next := analyzeHierCost(v.Body, cur.clone(), cfg, h)
			if next.equal(cur) {
				total += c * int64(v.Count-k+1)
				cur = next
				break
			}
			total += c
			cur = next
		}
		return total, cur
	case program.Branch:
		ct, stThen := analyzeHierCost(v.Then, st.clone(), cfg, h)
		ce, stElse := analyzeHierCost(v.Else, st.clone(), cfg, h)
		c := ct
		if ce > c {
			c = ce
		}
		return c, hierJoin(stThen, stElse)
	}
	panic(badNode(n))
}

// hierMustBounds is mustBounds over the hierarchy: the guaranteed cold WCET
// and the guaranteed warm WCET from the whole-program fixpoint of all three
// abstract states.
//
// Unlike the single-level analysis, the warm bound can exceed the cold
// bound: the cold pass knows the caches start empty, so every access is a
// guaranteed L1 miss that definitely reaches the L2, building a strong L2
// must state (many guaranteed L2 hits); in steady state the may analysis
// turns those accesses "uncertain", the L2 must state weakens through
// joins, and the warm bound can rise above cold. Both bounds stay sound
// individually, and the Result contract (Egu >= 0, Eq. 5) is restored by
// raising the cold bound to the warm one — raising an upper bound is
// always sound. With a degenerate L2 (hit cost == memory cost) the pass
// costs equal the single-level ones, so the clamp is a no-op and the
// degenerate equivalence stays bit-exact.
func hierMustBounds(p *program.Program, cfg cachesim.Config, h cachesim.Hierarchy) (cold, warm int64) {
	st := newHierState(cfg, h)
	cold, st = analyzeHierCost(p.Root, st, cfg, h)

	prev := st
	for i := 0; i < 64; i++ {
		var c int64
		c, st = analyzeHierCost(p.Root, prev.clone(), cfg, h)
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

// ---------------------------------------------------------------------------
// Exact two-level trace simulation (the cross-check engine).
// ---------------------------------------------------------------------------

// simulateHierNode is simulateNode against the concrete two-level cache:
// same worst-branch policy (costlier arm from the current state, ties to
// Then).
func simulateHierNode(n program.Node, c *cachesim.HierCache) int64 {
	switch v := n.(type) {
	case nil:
		return 0
	case program.Line:
		return int64(c.AccessRun(v.Addr, v.Fetches))
	case program.Seq:
		var total int64
		for _, child := range v {
			total += simulateHierNode(child, c)
		}
		return total
	case program.Loop:
		var total int64
		for i := 0; i < v.Count; i++ {
			total += simulateHierNode(v.Body, c)
		}
		return total
	case program.Branch:
		ct := simulateHierNode(v.Then, c.Clone())
		ce := simulateHierNode(v.Else, c.Clone())
		if ce > ct {
			return simulateHierNode(v.Else, c)
		}
		return simulateHierNode(v.Then, c)
	}
	panic(badNode(n))
}

// SimulateHierRuns returns the concrete per-run cycle counts of k
// back-to-back executions through a two-level cache starting cold, using
// the worst-branch policy; the hierarchy twin of SimulateRuns.
func SimulateHierRuns(p *program.Program, cfg cachesim.Config, h cachesim.Hierarchy, k int) []int64 {
	c := cachesim.MustNewHier(cfg, h)
	out := make([]int64, k)
	for i := range out {
		out[i] = simulateHierNode(p.Root, c)
	}
	return out
}
