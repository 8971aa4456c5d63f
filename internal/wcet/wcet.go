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
//     (hierarchy.go): a single-level platform is the hierarchy with no L2; and
//  2. an exact trace simulation over the cache model (Simulate,
//     SimulateRuns, SimulateOn), which yields the concrete worst-path
//     timing the bounds must dominate. It is the soundness oracle of the
//     tests and of cmd/wcetsim, never part of a bound.
package wcet

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/program"
	"repro/internal/sched"
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

// Restrict returns the platform as seen by an application owning `ways`
// dedicated ways of the shared cache (same clock, same set count, reduced
// associativity; see cachesim.Config.Restrict).
func (p Platform) Restrict(ways int) (Platform, error) {
	cfg, err := p.Cache.Restrict(ways)
	if err != nil {
		return Platform{}, err
	}
	return Platform{ClockHz: p.ClockHz, Cache: cfg}, nil
}

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

// Analyze runs the must-analysis on p and returns its guaranteed bounds.
// One walk serves every platform: without an enabled hierarchy it is the
// multi-level walk with no L2. The concrete simulation is not run;
// Simulate gives it on the same platform.
func Analyze(p *program.Program, plat Platform) (*Result, error) {
	if err := plat.Cache.Validate(); err != nil {
		return nil, err
	}
	if err := validateMustPolicy(plat.Cache, "L1 cache"); err != nil {
		return nil, err
	}
	if plat.Hier.Enabled() {
		if err := plat.Hier.Validate(plat.Cache); err != nil {
			return nil, err
		}
		if err := validateMustPolicy(plat.Hier.L2, "L2 cache"); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(plat.Cache.LineSize); err != nil {
		return nil, err
	}

	cold, warm := hierMustBounds(p, plat.Cache, plat.Hier)
	res := &Result{
		ColdCycles:      cold,
		WarmCycles:      warm,
		ReductionCycles: cold - warm,
		ReusedLines:     -1,
	}
	if d := int64(plat.Cache.MissCycles - plat.Cache.HitCycles); d > 0 && res.ReductionCycles%d == 0 {
		res.ReusedLines = int(res.ReductionCycles / d)
	}
	return res, nil
}

// AnalyzePartitioned analyzes p running on `ways` dedicated ways of plat's
// cache (a way partition): the must-analysis runs on the restricted
// geometry — identical set mapping, reduced associativity — and, because
// no other application can evict the partition's contents, the abstract
// state survives the gaps between the application's bursts. In periodic steady state every task therefore runs
// at the warm bound, including the first task of each burst; callers model
// that by using WarmCycles for the whole burst (sched.PartitionTimings).
func AnalyzePartitioned(p *program.Program, plat Platform, ways int) (*Result, error) {
	if plat.Hier.Enabled() {
		return nil, fmt.Errorf("wcet: partitioned analysis does not support cache hierarchies")
	}
	if err := validateMustPolicy(plat.Cache, "L1 cache"); err != nil {
		return nil, err
	}
	restricted, err := plat.Restrict(ways)
	if err != nil {
		return nil, err
	}
	return Analyze(p, restricted)
}

// SteadyWayTimings returns the program's steady-state schedule timing under
// every dedicated-way count: entry w-1 is the AppTiming when the
// application owns w ways, with ColdWCET == WarmWCET == the warm bound of
// the restricted analysis (the partition persists across other
// applications' bursts, so bursts have no cold start). This is the single
// home of the partition timing model; apps.WayTimings builds every
// sched.PartitionTimings table's per-way rows from it.
func SteadyWayTimings(p *program.Program, plat Platform, name string, maxIdle float64) ([]sched.AppTiming, error) {
	out := make([]sched.AppTiming, plat.Cache.Ways)
	for w := 1; w <= plat.Cache.Ways; w++ {
		res, err := AnalyzePartitioned(p, plat, w)
		if err != nil {
			return nil, fmt.Errorf("wcet: %s on %d ways: %w", name, w, err)
		}
		warm := plat.CyclesToSeconds(res.WarmCycles)
		out[w-1] = sched.AppTiming{Name: name, ColdWCET: warm, WarmWCET: warm, MaxIdle: maxIdle}
	}
	return out, nil
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
// k+1 lines can have age bound <= k), so the layout is exact, clone is three
// bulk copies, equality is one linear scan, and join is a sorted-run
// intersection — replacing a map per set with full rehash on every branch
// arm and loop iteration.
//
// The address arithmetic (set count, line shift) comes precomputed from
// cachesim.Geometry, so the per-access path performs no divisions.
//
// A nil *mustState is an absent cache level (no L2, or an exclusive L2 with
// no guaranteed hits): clone, equal and join carry it through as nil.
type mustState struct {
	ways  int
	geom  cachesim.Geometry
	lines []uint32
	ages  []int32
	cnt   []int32
}

func newMustState(cfg cachesim.Config) *mustState {
	sets := cfg.Sets()
	return &mustState{
		ways:  cfg.Ways,
		geom:  cfg.Geometry(),
		lines: make([]uint32, sets*cfg.Ways),
		ages:  make([]int32, sets*cfg.Ways),
		cnt:   make([]int32, sets),
	}
}

func (s *mustState) clone() *mustState {
	if s == nil {
		return nil
	}
	return &mustState{
		ways:  s.ways,
		geom:  s.geom,
		lines: append([]uint32(nil), s.lines...),
		ages:  append([]int32(nil), s.ages...),
		cnt:   append([]int32(nil), s.cnt...),
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

// access applies the must-domain LRU update for one line access.
func (s *mustState) access(addr uint32) {
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
		if i == pos {
			continue // re-inserted with age 0 below
		}
		age := s.ages[base+i]
		if age < oldAge {
			age++
			if age >= ways {
				continue // evicted
			}
		}
		s.lines[base+w] = s.lines[base+i]
		s.ages[base+w] = age
		w++
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
}

// join intersects two must states (classic must-join: keep lines guaranteed
// in both, with the larger age bound). Both runs are sorted by line, so the
// intersection is a single merge pass per set.
func join(a, b *mustState) *mustState {
	if a == nil {
		return nil
	}
	out := &mustState{
		ways:  a.ways,
		geom:  a.geom,
		lines: make([]uint32, len(a.lines)),
		ages:  make([]int32, len(a.ages)),
		cnt:   make([]int32, len(a.cnt)),
	}
	for set := range a.cnt {
		base := set * a.ways
		i, j, w := 0, 0, 0
		na, nb := int(a.cnt[set]), int(b.cnt[set])
		for i < na && j < nb {
			la, lb := a.lines[base+i], b.lines[base+j]
			switch {
			case la < lb:
				i++
			case la > lb:
				j++
			default:
				age := a.ages[base+i]
				if b.ages[base+j] > age {
					age = b.ages[base+j]
				}
				out.lines[base+w] = la
				out.ages[base+w] = age
				w++
				i++
				j++
			}
		}
		out.cnt[set] = int32(w)
	}
	return out
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

// SimulateOn executes p once against the provided (shared) cache, returning
// the cycle count. The cache is mutated; schedule-level integration tests
// use this to interleave multiple applications on one cache.
func SimulateOn(p *program.Program, c *cachesim.Cache) int64 {
	return simulateNode(p.Root, flatCache{c})
}
