// Package wcet computes worst-case execution times of control programs on
// the cache-equipped platform, following Section II-B of the paper:
//
//   - the WCET of a task starting with a cold cache (Ewc(1)), and
//   - the guaranteed WCET reduction Egu from instruction-cache reuse when
//     the same program runs back-to-back, giving the effective WCET of the
//     second and later tasks of a burst, Ewc(j) = Ewc(1) - Egu (Eq. 5).
//
// Two engines are provided and cross-checked against each other:
//
//  1. an abstract-interpretation "must" cache analysis (Ferdinand-style age
//     bounds with branch-join by intersection and virtual loop unrolling),
//     which yields *guaranteed* bounds as a WCET tool would — this is the
//     only engine Analyze runs. There is one walk for every cache level
//     (hierarchy.go): a single-level platform is the hierarchy with no L2;
//     and
//  2. an exact trace simulation over the cache model (Simulate,
//     SimulateRuns, SimulateHierRuns), which yields the concrete worst-path
//     timing the bounds must dominate. It is the soundness oracle of the
//     tests and of cmd/wcetsim, never part of a bound.
//
// The per-way-count bounds of a way partition come from one walk by LRU
// inclusion. An application owning k of a K-way cache's ways sees the same
// sets with associativity k, and its k-way must state is exactly the
// K-way state with every entry of age >= k dropped: the access update, the
// must join and the guaranteed-hit test (age < k) all commute with that
// truncation. So one walk of the K-way state prices a line access as a hit
// for every k above its age and a miss for every other k. A loop iterates
// until the full state is a per-iteration fixpoint; once a way count's
// truncated state has converged its iteration cost stays constant, so the
// extra iterations leave its total exact. The whole-program warm fixpoint
// records way count k at the first pass whose entry and exit states agree
// below age k (their agreement depth is at least k), with the 64-pass cap
// and the all-miss fallback applied per way count. Analyze returns these
// bounds as Result.WarmByWays; the restricted-geometry analyses they
// replace are kept as the tests' oracle.
package wcet

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/program"
)

// Platform is the execution platform: processor clock plus cache geometry,
// optionally extended with a second cache level (Hier; the zero value keeps
// the single-level model).
type Platform struct {
	ClockHz float64
	Cache   cachesim.Config
	Hier    cachesim.Hierarchy
}

// PaperPlatform returns the experimental platform of Section V: 20 MHz
// clock, 128 x 16-byte direct-mapped cache, 1-cycle hit, 100-cycle miss.
func PaperPlatform() Platform {
	return Platform{ClockHz: 20e6, Cache: cachesim.PaperConfig()}
}

// CyclesToSeconds converts a cycle count to seconds on this platform.
func (p Platform) CyclesToSeconds(c int64) float64 { return float64(c) / p.ClockHz }

// CyclesToMicros converts a cycle count to microseconds on this platform.
func (p Platform) CyclesToMicros(c int64) float64 { return float64(c) * 1e6 / p.ClockHz }

// Result holds the guaranteed WCET bounds of one program, as computed by
// the must-analysis. The concrete timings those bounds must dominate come
// from Simulate, which no bound depends on.
type Result struct {
	ColdCycles      int64 // Ewc(1): worst path, cold cache
	WarmCycles      int64 // Ewc(j), j >= 2: worst path with guaranteed reuse
	ReductionCycles int64 // Egu = ColdCycles - WarmCycles

	// ReusedLines is ReductionCycles expressed in whole reused cache lines
	// (reduction / (miss-hit)); -1 if the reduction is not line-granular.
	ReusedLines int

	// WarmByWays is the warm bound under every dedicated-way count of a way
	// partition: entry k-1 is the warm bound when the program owns k ways
	// of the cache (the same sets with associativity k,
	// cachesim.Config.Restrict), so the last entry equals WarmCycles. No
	// other application can evict a partition's contents, so in periodic
	// steady state every task of the program runs at this bound. Way
	// partitions are a single-level axis: the field is nil when the
	// platform has an L2.
	WarmByWays []int64
}

// validateMustPolicy rejects replacement policies the must-analysis cannot
// soundly bound. The Ferdinand age-bound domain models LRU only: running it
// against a FIFO or PLRU cache can report "guaranteed" hits the concrete
// cache misses. Direct-mapped caches are policy-free.
func validateMustPolicy(cfg cachesim.Config, level string) error {
	if cfg.Ways > 1 && cfg.Policy != cachesim.LRU {
		return fmt.Errorf("wcet: must-analysis supports only LRU replacement for set-associative caches; %s is %d-way %s",
			level, cfg.Ways, cfg.Policy)
	}
	return nil
}

// validate checks that the must-analysis can bound p on plat: valid cache
// geometries, LRU replacement wherever a set has more than one way, and a
// program whose lines fit the L1 line size.
func validate(p *program.Program, plat Platform) error {
	if err := plat.Cache.Validate(); err != nil {
		return err
	}
	if err := validateMustPolicy(plat.Cache, "L1 cache"); err != nil {
		return err
	}
	if plat.Hier.Enabled() {
		if err := plat.Hier.Validate(plat.Cache); err != nil {
			return err
		}
		if err := validateMustPolicy(plat.Hier.L2, "L2 cache"); err != nil {
			return err
		}
	}
	return p.Validate(plat.Cache.LineSize)
}

// Analyze runs the must-analysis on p and returns its guaranteed bounds.
// One walk serves every platform: without an enabled hierarchy it is the
// multi-level walk with no L2, pricing every way count at once (see the
// package comment); with an L2 it prices the full associativity only. The
// concrete simulation is not run; Simulate gives it on the same platform.
func Analyze(p *program.Program, plat Platform) (*Result, error) {
	if err := validate(p, plat); err != nil {
		return nil, err
	}
	cold, warm := newWalker(plat.Cache, plat.Hier).hierMustBounds(p)
	full := len(warm) - 1
	res := &Result{
		ColdCycles:      cold[full],
		WarmCycles:      warm[full],
		ReductionCycles: cold[full] - warm[full],
		ReusedLines:     -1,
	}
	if !plat.Hier.Enabled() {
		res.WarmByWays = warm
	}
	if d := int64(plat.Cache.MissCycles - plat.Cache.HitCycles); d > 0 && res.ReductionCycles%d == 0 {
		res.ReusedLines = int(res.ReductionCycles / d)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Engine 1: must-analysis (guaranteed bounds).
// ---------------------------------------------------------------------------

// mustState is the abstract must-cache: per set, the lines guaranteed to be
// cached with an upper bound on their LRU age (0 = most recently used).
// A line is guaranteed present iff its age bound is < ways.
//
// The state is stored flat: set s owns the entry range
// [s*ways, s*ways+cnt[s]), each entry a (line, age) pair kept sorted by line
// index. The must domain guarantees at most `ways` lines per set (at most
// k+1 lines can have age bound <= k), so the layout is exact, a copy is
// three bulk copies into arrays the target already owns, equality and
// agreement are one linear scan, and join is an in-place sorted-run
// intersection.
//
// The address arithmetic (set count, line shift) comes precomputed from
// cachesim.Geometry, so the per-access path performs no divisions.
//
// A nil *mustState is an absent cache level (no L2, or an exclusive L2 with
// no guaranteed hits): copyFrom, reset, equal and joinInto carry it through
// as nil.
type mustState struct {
	ways  int
	geom  cachesim.Geometry
	lines []uint32
	ages  []int32
	cnt   []int32
}

func newMustState(cfg cachesim.Config) *mustState {
	sets, entries := cfg.Sets(), cfg.Lines
	ages := make([]int32, entries+sets) // ages and counts share one allocation
	return &mustState{
		ways:  cfg.Ways,
		geom:  cfg.Geometry(),
		lines: make([]uint32, entries),
		ages:  ages[:entries:entries],
		cnt:   ages[entries:],
	}
}

// copyFrom overwrites s with src, a state of the same geometry.
func (s *mustState) copyFrom(src *mustState) {
	if s == nil {
		return
	}
	copy(s.lines, src.lines)
	copy(s.ages, src.ages)
	copy(s.cnt, src.cnt)
}

// reset empties s: no line is guaranteed cached.
func (s *mustState) reset() {
	if s != nil {
		clear(s.cnt)
	}
}

func (s *mustState) equal(o *mustState) bool {
	if s == nil || o == nil {
		return s == o
	}
	for set := range s.cnt {
		if s.cnt[set] != o.cnt[set] {
			return false
		}
		base := set * s.ways
		for i := base; i < base+int(s.cnt[set]); i++ {
			if s.lines[i] != o.lines[i] || s.ages[i] != o.ages[i] {
				return false
			}
		}
	}
	return true
}

// agreement returns the agreement depth of two states of the same geometry:
// the largest d <= ways such that s and o hold exactly the same (line, age)
// entries of age below d. A line held at different ages, or by one state
// only (an absent line has age ways), caps d at the smaller of its two
// ages. By LRU inclusion the k-way truncations of s and o are therefore
// equal exactly for k <= d, and d == ways iff s equals o.
func (s *mustState) agreement(o *mustState) int32 {
	d := int32(s.ways)
	for set := range s.cnt {
		base := set * s.ways
		i, j := base, base
		ei, ej := base+int(s.cnt[set]), base+int(o.cnt[set])
		for i < ei || j < ej {
			switch {
			case j == ej || (i < ei && s.lines[i] < o.lines[j]):
				d = min(d, s.ages[i])
				i++
			case i == ei || o.lines[j] < s.lines[i]:
				d = min(d, o.ages[j])
				j++
			default:
				if s.ages[i] != o.ages[j] {
					d = min(d, s.ages[i], o.ages[j])
				}
				i++
				j++
			}
		}
		if d == 0 {
			break
		}
	}
	return d
}

// access applies the must-domain LRU update for one line access and
// returns the line's age bound before it (ways when it was not guaranteed
// cached).
func (s *mustState) access(addr uint32) int32 { return s.update(addr, true) }

// accessUncertain applies, in place, the must join of the state with and
// without one access of addr, for an access that may or may not happen,
// and returns the line's age bound before it as access does. Only the set
// the line maps to can change: every line younger than the accessed one
// ages by one as under access (the join keeps the larger bound), while the
// accessed line keeps its old bound (or stays absent).
func (s *mustState) accessUncertain(addr uint32) int32 { return s.update(addr, false) }

// update is access (taken) or accessUncertain (!taken).
func (s *mustState) update(addr uint32, taken bool) int32 {
	line := s.geom.Line(addr)
	set := s.geom.Set(line)
	base := set * s.ways
	n := int(s.cnt[set])
	ways := int32(s.ways)

	oldAge := ways // conceptually outside the cache
	pos := -1
	for i := 0; i < n; i++ {
		if s.lines[base+i] == line {
			oldAge = s.ages[base+i]
			pos = i
			break
		}
	}
	// Age every strictly younger line by one, evicting lines that reach the
	// associativity bound; the sorted-by-line order is preserved because
	// surviving entries are compacted in place.
	w := 0
	for i := 0; i < n; i++ {
		age := s.ages[base+i]
		if i == pos {
			if taken {
				continue // re-inserted with age 0 below
			}
		} else if age < oldAge {
			age++
			if age >= ways {
				continue // evicted
			}
		}
		s.lines[base+w] = s.lines[base+i]
		s.ages[base+w] = age
		w++
	}
	if !taken {
		s.cnt[set] = int32(w)
		return oldAge
	}
	// Insert the accessed line at age 0, keeping the run sorted by line.
	ins := w
	for ins > 0 && s.lines[base+ins-1] > line {
		s.lines[base+ins] = s.lines[base+ins-1]
		s.ages[base+ins] = s.ages[base+ins-1]
		ins--
	}
	s.lines[base+ins] = line
	s.ages[base+ins] = 0
	s.cnt[set] = int32(w + 1)
	return oldAge
}

// joinInto intersects o into s in place (classic must-join: keep lines
// guaranteed in both, with the larger age bound). Both runs are sorted by
// line, so the intersection is a single merge pass per set, and it never
// writes ahead of the entry it reads.
func (s *mustState) joinInto(o *mustState) {
	if s == nil {
		return
	}
	for set := range s.cnt {
		na, nb := int(s.cnt[set]), int(o.cnt[set])
		if na == 0 {
			continue
		}
		base := set * s.ways
		i, j, w := 0, 0, 0
		for i < na && j < nb {
			la, lb := s.lines[base+i], o.lines[base+j]
			switch {
			case la < lb:
				i++
			case la > lb:
				j++
			default:
				s.lines[base+w] = la
				s.ages[base+w] = max(s.ages[base+i], o.ages[base+j])
				w++
				i++
				j++
			}
		}
		s.cnt[set] = int32(w)
	}
}

// ---------------------------------------------------------------------------
// Engine 2: concrete worst-path simulation (the soundness oracle).
// ---------------------------------------------------------------------------

// Simulate returns the concrete cycles of a cold run of p followed by a
// warm run (back-to-back tasks of one burst) under the worst-branch policy,
// through the two-level cache when plat carries an enabled hierarchy. The
// must-analysis bounds Analyze returns on the same platform dominate both:
// cold <= ColdCycles and warm <= WarmCycles. plat and p must be valid for
// Analyze.
func Simulate(p *program.Program, plat Platform) (cold, warm int64) {
	if plat.Hier.Enabled() {
		runs := SimulateHierRuns(p, plat.Cache, plat.Hier, 2)
		return runs[0], runs[1]
	}
	runs := SimulateRuns(p, plat.Cache, 2)
	return runs[0], runs[1]
}

// concreteCache is a cache the worst-branch simulation runs against: the
// single-level cachesim.Cache or the two-level cachesim.HierCache.
type concreteCache interface {
	fetch(addr uint32, fetches int) int64
	clone() concreteCache
}

type flatCache struct{ c *cachesim.Cache }

func (f flatCache) fetch(addr uint32, n int) int64 {
	_, cyc := f.c.AccessRun(addr, n)
	return int64(cyc)
}
func (f flatCache) clone() concreteCache { return flatCache{f.c.Clone()} }

type twoLevelCache struct{ c *cachesim.HierCache }

func (t twoLevelCache) fetch(addr uint32, n int) int64 { return int64(t.c.AccessRun(addr, n)) }
func (t twoLevelCache) clone() concreteCache           { return twoLevelCache{t.c.Clone()} }

// simulateNode executes n against the concrete cache, choosing at each
// branch the arm that is costlier *from the current concrete state* (ties
// go to Then), and returns the cycle count.
func simulateNode(n program.Node, c concreteCache) int64 {
	switch v := n.(type) {
	case nil:
		return 0
	case program.Line:
		return c.fetch(v.Addr, v.Fetches)
	case program.Seq:
		var total int64
		for _, child := range v {
			total += simulateNode(child, c)
		}
		return total
	case program.Loop:
		var total int64
		for i := 0; i < v.Count; i++ {
			total += simulateNode(v.Body, c)
		}
		return total
	case program.Branch:
		ct := simulateNode(v.Then, c.clone())
		ce := simulateNode(v.Else, c.clone())
		if ce > ct {
			return simulateNode(v.Else, c)
		}
		return simulateNode(v.Then, c)
	}
	panic(badNode(n))
}

// simulateRuns runs p k times back to back on c.
func simulateRuns(p *program.Program, c concreteCache, k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = simulateNode(p.Root, c)
	}
	return out
}

// SimulateRuns returns the concrete per-run cycle counts of k back-to-back
// executions starting from a cold cache, using the worst-branch policy. It
// is used by integration tests to validate the burst model of Eq. (5).
func SimulateRuns(p *program.Program, cfg cachesim.Config, k int) []int64 {
	return simulateRuns(p, flatCache{cachesim.MustNew(cfg)}, k)
}

// SimulateHierRuns returns the concrete per-run cycle counts of k
// back-to-back executions through a two-level cache starting cold, using
// the worst-branch policy; the hierarchy twin of SimulateRuns.
func SimulateHierRuns(p *program.Program, cfg cachesim.Config, h cachesim.Hierarchy, k int) []int64 {
	return simulateRuns(p, twoLevelCache{cachesim.MustNewHier(cfg, h)}, k)
}
