package wcet

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/program"
)

// A dedicated single-level must-analysis walker, the differential oracle of
// TestAnalyzeMatchesReferenceWalker: an independent CFG walk over the bare
// mustState, with its own 16-pass warm cap and (cold, cold) fallback.
// Analyze runs hierMustBounds, the hierarchy walk with no L2, instead.

// analyzeCost walks the CFG computing a guaranteed worst-path cycle bound,
// threading the must state. Branches take the max cost and intersect the
// out-states; loops are virtually unrolled (first iteration separate,
// remaining iterations from the per-iteration fixpoint).
func analyzeCost(n program.Node, st *mustState, cfg cachesim.Config) (int64, *mustState) {
	switch v := n.(type) {
	case nil:
		return 0, st
	case program.Line:
		var c int64
		if st.guaranteed(v.Addr) {
			c = int64(v.Fetches) * int64(cfg.HitCycles)
		} else {
			c = int64(cfg.MissCycles) + int64(v.Fetches-1)*int64(cfg.HitCycles)
		}
		st.access(v.Addr)
		return c, st
	case program.Seq:
		var total int64
		for _, child := range v {
			var c int64
			c, st = analyzeCost(child, st, cfg)
			total += c
		}
		return total, st
	case program.Loop:
		// First iteration from the incoming state.
		total, cur := analyzeCost(v.Body, st, cfg)
		for k := 2; k <= v.Count; k++ {
			c, next := analyzeCost(v.Body, cur.clone(), cfg)
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
		ct, stThen := analyzeCost(v.Then, st.clone(), cfg)
		ce, stElse := analyzeCost(v.Else, st.clone(), cfg)
		c := ct
		if ce > c {
			c = ce
		}
		return c, join(stThen, stElse)
	}
	panic(fmt.Sprintf("wcet: unknown node type %T", n))
}

// mustBounds returns the guaranteed cold WCET and the guaranteed warm WCET
// (steady state of back-to-back executions).
func mustBounds(p *program.Program, cfg cachesim.Config) (cold, warm int64) {
	st := newMustState(cfg)
	cold, st = analyzeCost(p.Root, st, cfg)

	// Iterate whole-program passes until the entry state (and hence the
	// cost) of a pass stabilizes; that pass's cost is the guaranteed warm
	// WCET. Cap the iteration defensively.
	prev := st
	for i := 0; i < 16; i++ {
		var c int64
		c, st = analyzeCost(p.Root, prev.clone(), cfg)
		if st.equal(prev) {
			return cold, c
		}
		warm = c
		prev = st
	}
	// No fixpoint within the cap (pathological ping-pong): be conservative
	// and report no guaranteed reduction.
	return cold, cold
}

// TestAnalyzeMatchesReferenceWalker pins the single-level analysis to the
// reference walker bit for bit: over a seeded random corpus on every golden
// single-level platform, Analyze and AnalyzePartitioned at every way count
// must return exactly the reference cold and warm bounds. Half the corpus
// draws addresses from twice the L1 (the default span fits it), so sets
// really conflict and the joins and evictions are exercised.
func TestAnalyzeMatchesReferenceWalker(t *testing.T) {
	for pi, plat := range goldenSingleLevelPlatforms() {
		rng := rand.New(rand.NewSource(int64(59 + pi)))
		var progs []*program.Program
		for i := 0; i < 150; i++ {
			spec := program.RandomSpec{}
			if i%2 == 1 {
				spec = program.RandomSpec{MaxSeqLen: 6, MaxLines: 12, AddressSpan: 2 * plat.Cache.Lines}
			}
			progs = append(progs, program.Random(rng, spec))
		}
		conflicting := 0
		for i, p := range progs {
			if overfullSet(p, plat.Cache) {
				conflicting++
			}
			check := func(name string, cfg cachesim.Config, res *Result) {
				t.Helper()
				cold, warm := mustBounds(p, cfg)
				if res.ColdCycles != cold || res.WarmCycles != warm {
					t.Fatalf("platform %d program %d %s: Analyze cold=%d warm=%d, reference cold=%d warm=%d",
						pi, i, name, res.ColdCycles, res.WarmCycles, cold, warm)
				}
			}
			res, err := Analyze(p, plat)
			if err != nil {
				t.Fatal(err)
			}
			check("shared", plat.Cache, res)
			for ways := 1; ways <= plat.Cache.Ways; ways++ {
				restricted, err := plat.Restrict(ways)
				if err != nil {
					t.Fatal(err)
				}
				res, err := AnalyzePartitioned(p, plat, ways)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%d ways", ways), restricted.Cache, res)
			}
		}
		if conflicting < len(progs)/10 {
			t.Errorf("platform %d: only %d of %d programs overfill a set", pi, conflicting, len(progs))
		}
	}
}
