package wcet

import "repro/internal/program"

// Allocating forms of the walk's in-place state operations and the
// per-line cost of one access, for the fuzz targets and the reference
// walker: the production walk copies, joins and classifies into pooled
// states instead.

func (s *mustState) clone() *mustState {
	if s == nil {
		return nil
	}
	n := &mustState{
		ways:  s.ways,
		geom:  s.geom,
		lines: make([]uint32, len(s.lines)),
		ages:  make([]int32, len(s.ages)),
		cnt:   make([]int32, len(s.cnt)),
	}
	n.copyFrom(s)
	return n
}

func (s *mayState) clone() *mayState {
	if s == nil {
		return nil
	}
	n := &mayState{ways: s.ways, geom: s.geom, sets: make([][]mayEntry, len(s.sets))}
	n.copyFrom(s)
	return n
}

func (s hierState) clone() hierState {
	return hierState{l1Must: s.l1Must.clone(), l1May: s.l1May.clone(), l2Must: s.l2Must.clone()}
}

// join returns the must join of a and b as a new state.
func join(a, b *mustState) *mustState {
	out := a.clone()
	out.joinInto(b)
	return out
}

// hierJoin returns the join of a and b as a new state.
func hierJoin(a, b hierState) hierState {
	out := a.clone()
	var buf []mayEntry
	out.joinInto(b, &buf)
	return out
}

// guaranteed reports whether the line containing addr is guaranteed cached.
func (s *mustState) guaranteed(addr uint32) bool {
	line := s.geom.Line(addr)
	set := s.geom.Set(line)
	base := set * s.ways
	for i := base; i < base+int(s.cnt[set]); i++ {
		if s.lines[i] == line {
			return true
		}
	}
	return false
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

// hierLineCost classifies one line access against the state at the full
// L1 associativity, returns its guaranteed cycle bound, and applies the
// abstract updates: the walker's line pricing of a single way count.
func hierLineCost(v program.Line, st *hierState, pr prices) int64 {
	w := walker{pr: pr, lo: st.l1Must.ways}
	var c [1]int64
	w.line(v, st, c[:])
	return c[0]
}
