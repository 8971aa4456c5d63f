package wcet

// Native fuzz target for the two-level hierarchy state: the production
// hierState (flat L1 must + dynamic sorted L1 may + flat L2 must) is driven
// against a retained map-based reference through arbitrary
// access/clone/join interleavings on arbitrary small two-level geometries,
// demanding identical abstract states, identical per-access cycle costs,
// and the sorted-layout invariants after every step — mirroring
// FuzzMustStateOps for the single-level domain.
//
// Run the corpus (testdata/fuzz/FuzzHierStateOps) as part of `go test`;
// fuzz with
//
//	go test -run '^$' -fuzz FuzzHierStateOps -fuzztime 30s ./internal/wcet

import (
	"sort"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/program"
)

// refMayState is the map-based executable specification of the may domain:
// per set, a map from line index to its lower-bound LRU age.
type refMayState struct {
	ways int32
	geom cachesim.Geometry
	sets []map[uint32]int32
}

func newRefMayState(cfg cachesim.Config) *refMayState {
	s := &refMayState{ways: int32(cfg.Ways), geom: cfg.Geometry(), sets: make([]map[uint32]int32, cfg.Sets())}
	for i := range s.sets {
		s.sets[i] = make(map[uint32]int32)
	}
	return s
}

func (s *refMayState) clone() *refMayState {
	n := &refMayState{ways: s.ways, geom: s.geom, sets: make([]map[uint32]int32, len(s.sets))}
	for i, m := range s.sets {
		n.sets[i] = make(map[uint32]int32, len(m))
		for k, v := range m {
			n.sets[i][k] = v
		}
	}
	return n
}

func (s *refMayState) maybe(addr uint32) bool {
	line := s.geom.Line(addr)
	_, ok := s.sets[s.geom.Set(line)][line]
	return ok
}

func (s *refMayState) access(addr uint32) {
	line := s.geom.Line(addr)
	m := s.sets[s.geom.Set(line)]
	oldAge, ok := m[line]
	if !ok {
		oldAge = s.ways
	}
	for l, age := range m {
		if l == line {
			continue
		}
		if age <= oldAge {
			age++
			if age >= s.ways {
				delete(m, l)
				continue
			}
			m[l] = age
		}
	}
	m[line] = 0
}

func refMayJoin(a, b *refMayState) *refMayState {
	out := newRefMayState(cachesim.Config{Lines: 1, LineSize: 1, Ways: 1})
	out.ways, out.geom = a.ways, a.geom
	out.sets = make([]map[uint32]int32, len(a.sets))
	for i := range a.sets {
		out.sets[i] = make(map[uint32]int32)
		for l, age := range a.sets[i] {
			out.sets[i][l] = age
		}
		for l, age := range b.sets[i] {
			if cur, ok := out.sets[i][l]; !ok || age < cur {
				out.sets[i][l] = age
			}
		}
	}
	return out
}

// canonical extracts a reference may set's entries sorted by line.
func (s *refMayState) canonical(set int) []lineAge {
	out := make([]lineAge, 0, len(s.sets[set]))
	for l, a := range s.sets[set] {
		out = append(out, lineAge{l, a})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].line < out[j].line })
	return out
}

// checkMayInvariants asserts the structural invariants of the sorted may
// layout: lines strictly sorted, ages in [0, ways), every line mapping to
// its set. (Unlike the must domain a set may hold more lines than ways.)
func checkMayInvariants(t *testing.T, s *mayState, cfg cachesim.Config) {
	t.Helper()
	geom := cfg.Geometry()
	for set, entries := range s.sets {
		for i, e := range entries {
			if i > 0 && entries[i-1].line >= e.line {
				t.Fatalf("may set %d entries unsorted: %d then %d", set, entries[i-1].line, e.line)
			}
			if e.age < 0 || e.age >= int32(cfg.Ways) {
				t.Fatalf("may set %d line %d age %d out of [0, %d)", set, e.line, e.age, cfg.Ways)
			}
			if geom.Set(e.line) != set {
				t.Fatalf("may set %d holds line %d which maps to set %d", set, e.line, geom.Set(e.line))
			}
		}
	}
}

// compareMayStates requires the sorted and reference states be the same
// abstract may-cache, and cross-checks maybe() on each held line.
func compareMayStates(t *testing.T, flat *mayState, ref *refMayState, cfg cachesim.Config) {
	t.Helper()
	for set := 0; set < cfg.Sets(); set++ {
		f := append([]mayEntry(nil), flat.sets[set]...)
		r := ref.canonical(set)
		if len(f) != len(r) {
			t.Fatalf("may set %d: sorted holds %d lines, reference %d (%v vs %v)", set, len(f), len(r), f, r)
		}
		for i := range f {
			if f[i].line != r[i].line || f[i].age != r[i].age {
				t.Fatalf("may set %d entry %d: sorted %+v, reference %+v", set, i, f[i], r[i])
			}
			addr := f[i].line << 4 // line size 16
			if !flat.maybe(addr) {
				t.Fatalf("may set %d line %d held but not maybe-cached", set, f[i].line)
			}
		}
	}
}

// refHierState is the map-based reference of the combined hierarchy state.
type refHierState struct {
	l1Must *refMustState
	l1May  *refMayState
	l2Must *refMustState
}

func newRefHierState(cfg cachesim.Config, h cachesim.Hierarchy) *refHierState {
	st := &refHierState{l1Must: newRefMustState(cfg), l1May: newRefMayState(cfg)}
	if !h.Exclusive {
		st.l2Must = newRefMustState(h.L2)
	}
	return st
}

func (s *refHierState) clone() *refHierState {
	n := &refHierState{l1Must: s.l1Must.clone(), l1May: s.l1May.clone()}
	if s.l2Must != nil {
		n.l2Must = s.l2Must.clone()
	}
	return n
}

func refHierJoin(a, b *refHierState) *refHierState {
	out := &refHierState{l1Must: refJoin(a.l1Must, b.l1Must), l1May: refMayJoin(a.l1May, b.l1May)}
	if a.l2Must != nil {
		out.l2Must = refJoin(a.l2Must, b.l2Must)
	}
	return out
}

// refGuaranteed mirrors mustState.guaranteed on the reference maps.
func refGuaranteed(s *refMustState, addr uint32) bool {
	line := s.geom.Line(addr)
	_, ok := s.sets[s.geom.Set(line)][line]
	return ok
}

// refHierAccess mirrors hierLineCost (single fetch) on the reference state.
func refHierAccess(st *refHierState, addr uint32, cfg cachesim.Config, h cachesim.Hierarchy) int64 {
	var c int64
	switch {
	case refGuaranteed(st.l1Must, addr):
		c = int64(cfg.HitCycles)
	case !st.l1May.maybe(addr):
		if st.l2Must != nil && refGuaranteed(st.l2Must, addr) {
			c = int64(h.L2.HitCycles)
		} else {
			c = int64(cfg.MissCycles)
		}
		if st.l2Must != nil {
			st.l2Must.access(addr)
		}
	default:
		if st.l2Must != nil && refGuaranteed(st.l2Must, addr) {
			c = int64(h.L2.HitCycles)
		} else {
			c = int64(cfg.MissCycles)
		}
		if st.l2Must != nil {
			touched := st.l2Must.clone()
			touched.access(addr)
			st.l2Must = refJoin(touched, st.l2Must)
		}
	}
	st.l1Must.access(addr)
	st.l1May.access(addr)
	return c
}

// compareHierStates requires all three component states agree with the
// reference.
func compareHierStates(t *testing.T, st hierState, ref *refHierState, cfg cachesim.Config, h cachesim.Hierarchy) {
	t.Helper()
	checkFlatInvariants(t, st.l1Must, cfg)
	checkMayInvariants(t, st.l1May, cfg)
	compareStates(t, st.l1Must, ref.l1Must, cfg)
	compareMayStates(t, st.l1May, ref.l1May, cfg)
	if (st.l2Must == nil) != (ref.l2Must == nil) {
		t.Fatalf("L2 must presence diverged: production %v, reference %v", st.l2Must != nil, ref.l2Must != nil)
	}
	if st.l2Must != nil {
		checkFlatInvariants(t, st.l2Must, h.L2)
		compareStates(t, st.l2Must, ref.l2Must, h.L2)
	}
}

// fuzzHier decodes a small L2 geometry (and the arrangement bit) from two
// fuzz bytes, compatible with any fuzzConfig L1.
func fuzzHier(b2, b3 byte) cachesim.Hierarchy {
	ways := 1 << (b2 % 4) // 1, 2, 4, 8
	sets := 4 << (b3 % 3) // 4, 8, 16
	return cachesim.Hierarchy{
		L2: cachesim.Config{
			Lines: sets * ways, LineSize: 16, Ways: ways,
			Policy: cachesim.LRU, HitCycles: 10, MissCycles: 100,
		},
		Exclusive: b2&0x40 != 0,
	}
}

// FuzzHierStateOps drives two (production, reference) hierarchy-state pairs
// through an arbitrary interleaving of line accesses, clones, and joins,
// comparing states and per-access costs after every operation.
func FuzzHierStateOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 1, 1, 0, 16, 32, 1, 16, 32, 2, 0, 0})
	f.Add([]byte{2, 0, 64, 0, 0, 0, 16, 1, 0, 16, 3, 0, 0, 2, 0, 0, 0, 255, 255})
	f.Add([]byte{3, 2, 2, 1, 0, 0, 1, 1, 0, 32, 2, 0, 0, 3, 0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := fuzzConfig(data[0], data[1])
		h := fuzzHier(data[2], data[3])
		stA, stB := newHierState(cfg, h), newHierState(cfg, h)
		refA, refB := newRefHierState(cfg, h), newRefHierState(cfg, h)
		for i := 4; i+2 < len(data); i += 3 {
			op, a0, a1 := data[i], data[i+1], data[i+2]
			switch op % 4 {
			case 0:
				addr := fuzzAddr(a0, a1)
				got := hierLineCost(program.Line{Addr: addr, Fetches: 1}, &stA, linePrices(cfg, h))
				if want := refHierAccess(refA, addr, cfg, h); got != want {
					t.Fatalf("access %#x: production cost %d, reference %d", addr, got, want)
				}
			case 1:
				addr := fuzzAddr(a0, a1)
				got := hierLineCost(program.Line{Addr: addr, Fetches: 1}, &stB, linePrices(cfg, h))
				if want := refHierAccess(refB, addr, cfg, h); got != want {
					t.Fatalf("access %#x: production cost %d, reference %d", addr, got, want)
				}
			case 2:
				stA = hierJoin(stA, stB)
				refA = refHierJoin(refA, refB)
			case 3:
				stB = stA.clone()
				refB = refA.clone()
				if !stB.equal(stA) {
					t.Fatal("clone not equal to its source")
				}
			}
			compareHierStates(t, stA, refA, cfg, h)
			compareHierStates(t, stB, refB, cfg, h)
		}
	})
}

// TestFuzzHierHelpersAgreeOnPaperConfig pins the hierarchy fuzz reference
// against the production state on a realistic two-level geometry: a long
// access sequence with periodic joins must agree cost for cost.
func TestFuzzHierHelpersAgreeOnPaperConfig(t *testing.T) {
	cfg := cachesim.Config{Lines: 32, LineSize: 16, Ways: 2, Policy: cachesim.LRU, HitCycles: 1, MissCycles: 100}
	h := cachesim.Hierarchy{L2: cachesim.Config{
		Lines: 128, LineSize: 16, Ways: 4, Policy: cachesim.LRU, HitCycles: 10, MissCycles: 100,
	}}
	st, ref := newHierState(cfg, h), newRefHierState(cfg, h)
	other, refOther := newHierState(cfg, h), newRefHierState(cfg, h)
	for i := 0; i < 4000; i++ {
		addr := fuzzAddr(byte(i*7), byte(i*13+1))
		if got, want := hierLineCost(program.Line{Addr: addr, Fetches: 1}, &st, linePrices(cfg, h)), refHierAccess(ref, addr, cfg, h); got != want {
			t.Fatalf("access %d (%#x): production cost %d, reference %d", i, addr, got, want)
		}
		switch i % 97 {
		case 31:
			hierLineCost(program.Line{Addr: addr ^ 0x100, Fetches: 1}, &other, linePrices(cfg, h))
			refHierAccess(refOther, addr^0x100, cfg, h)
		case 96:
			st = hierJoin(st, other)
			ref = refHierJoin(ref, refOther)
		}
	}
	compareHierStates(t, st, ref, cfg, h)
}
