package wcet

// The one-walk way pricing against its oracle: for every way count k, the
// cold and warm bounds the walk prices by LRU inclusion must equal the
// bounds of a separate analysis of the cache restricted to k ways
// (AnalyzePartitioned), and the agreement depth the warm fixpoint reads
// must equal the truncated-state equality it stands for.
//
// Run the corpus as part of `go test`; fuzz with
//
//	go test -run '^$' -fuzz FuzzWayBoundsMatchRestricted -fuzztime 30s ./internal/wcet

import (
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/program"
)

// wayGeometry decodes a single-level LRU cache from one fuzz byte: 1 to 16
// ways (not only powers of two) over 1 to 16 sets, so the tiniest caches
// hold a single set.
func wayGeometry(b byte) cachesim.Config {
	ways := []int{1, 2, 3, 4, 5, 6, 8, 16}[b%8]
	sets := 1 << (b / 8 % 5) // 1, 2, 4, 8, 16
	return cachesim.Config{
		Lines: sets * ways, LineSize: 16, Ways: ways,
		Policy: cachesim.LRU, HitCycles: 1, MissCycles: 100,
	}
}

// truncated returns a set's entries of age below k, sorted by line.
func truncated(s *mustState, set int, k int32) []lineAge {
	var out []lineAge
	for _, e := range flatCanonical(s, set) {
		if e.age < k {
			out = append(out, e)
		}
	}
	return out
}

// truncEqual reports whether the k-way truncations of a and b are equal.
func truncEqual(a, b *mustState, k int32) bool {
	for set := range a.cnt {
		ta, tb := truncated(a, set, k), truncated(b, set, k)
		if len(ta) != len(tb) {
			return false
		}
		for i := range ta {
			if ta[i] != tb[i] {
				return false
			}
		}
	}
	return true
}

// randomStatePair builds two must states from a shared random access
// prefix. Then either both take a few divergent accesses (sometimes joined
// or followed by a common suffix), or b has a few of its entries edited in
// place — dropped, aged or added at a random age — so the agreement depth
// lands anywhere in [0, ways], not only at its ends.
func randomStatePair(r *rand.Rand, cfg cachesim.Config) (*mustState, *mustState) {
	span := 4 * cfg.Lines
	addr := func() uint32 { return uint32(r.Intn(span)) * uint32(cfg.LineSize) }
	a := newMustState(cfg)
	for i := r.Intn(4 * cfg.Lines); i > 0; i-- {
		a.access(addr())
	}
	b := a.clone()
	if r.Intn(2) == 0 {
		for i := r.Intn(3); i > 0; i-- {
			a.access(addr())
		}
		for i := r.Intn(3); i > 0; i-- {
			b.access(addr())
		}
		switch r.Intn(3) {
		case 0:
			a.joinInto(b)
		case 1:
			for i := r.Intn(2 * cfg.Lines); i > 0; i-- {
				x := addr()
				a.access(x)
				b.access(x)
			}
		}
		return a, b
	}
	for i := 1 + r.Intn(2); i > 0; i-- {
		set := r.Intn(cfg.Sets())
		base, n := set*b.ways, int(b.cnt[set])
		switch {
		case n > 0 && r.Intn(3) == 0: // drop an entry
			e := base + r.Intn(n)
			copy(b.lines[e:base+n], b.lines[e+1:base+n])
			copy(b.ages[e:base+n], b.ages[e+1:base+n])
			b.cnt[set]--
		case n > 0 && r.Intn(2) == 0: // age an entry, keeping it below ways
			if e := base + r.Intn(n); b.ages[e]+1 < int32(b.ways) {
				b.ages[e]++
			}
		case n < b.ways: // add a line of this set the state does not hold
			line := uint32(set) + uint32(cfg.Sets())*uint32(r.Intn(4*b.ways))
			pos := base
			for pos < base+n && b.lines[pos] < line {
				pos++
			}
			if pos < base+n && b.lines[pos] == line {
				continue
			}
			copy(b.lines[pos+1:base+n+1], b.lines[pos:base+n])
			copy(b.ages[pos+1:base+n+1], b.ages[pos:base+n])
			b.lines[pos], b.ages[pos] = line, int32(r.Intn(b.ways))
			b.cnt[set]++
		}
	}
	return a, b
}

// referenceBounds is the restricted-geometry bounds of the reference
// walker (analyzeCost), an independent CFG walk over cfg's own
// associativity, with the production warm-fixpoint rule: the 64-pass cap
// and the all-miss fallback.
func referenceBounds(p *program.Program, cfg cachesim.Config) (cold, warm int64) {
	cold, prev := analyzeCost(p.Root, newMustState(cfg), cfg)
	for i := 0; i < 64; i++ {
		c, st := analyzeCost(p.Root, prev.clone(), cfg)
		if st.equal(prev) {
			return max(cold, c), c
		}
		prev = st
	}
	wc := max(allMissCost(p.Root, cfg), cold)
	return wc, wc
}

// FuzzWayBoundsMatchRestricted draws a random program (loop bounds up to 12,
// addresses from up to four times the cache) and a geometry, prices every
// way count in one walk, and requires each cold and warm bound to equal
// the restricted-geometry analysis and the reference walker on the
// restricted geometry, and Analyze's WarmByWays to report those warm
// bounds. It then checks the agreement depth of random state pairs against
// truncated-state equality at every way count.
func FuzzWayBoundsMatchRestricted(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
	}
	f.Fuzz(func(t *testing.T, seed int64, geo, shape, span byte) {
		cfg := wayGeometry(geo)
		plat := Platform{ClockHz: 20e6, Cache: cfg}
		r := rand.New(rand.NewSource(seed))
		p := program.Random(r, program.RandomSpec{
			MaxDepth:    1 + int(shape%4),
			MaxSeqLen:   1 + int(shape/4%6),
			MaxLines:    1 + int(shape/24%8),
			MaxLoop:     1 + int(span%12),
			AddressSpan: 1 + int(span)%(4*cfg.Lines),
		})

		cold, warm := newWalker(cfg, cachesim.Hierarchy{}).hierMustBounds(p)
		shared, err := Analyze(p, plat)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= cfg.Ways; k++ {
			res, err := AnalyzePartitioned(p, plat, k)
			if err != nil {
				t.Fatal(err)
			}
			restricted, err := cfg.Restrict(k)
			if err != nil {
				t.Fatal(err)
			}
			refCold, refWarm := referenceBounds(p, restricted)
			if cold[k-1] != res.ColdCycles || warm[k-1] != res.WarmCycles || cold[k-1] != refCold || warm[k-1] != refWarm {
				t.Fatalf("%d of %d ways (%d sets): walk cold=%d warm=%d, restricted cold=%d warm=%d, reference cold=%d warm=%d",
					k, cfg.Ways, cfg.Sets(), cold[k-1], warm[k-1], res.ColdCycles, res.WarmCycles, refCold, refWarm)
			}
			if got := shared.WarmByWays[k-1]; got != res.WarmCycles {
				t.Fatalf("%d ways: Analyze WarmByWays %d, restricted warm %d", k, got, res.WarmCycles)
			}
		}

		for i := 0; i < 8; i++ {
			a, b := randomStatePair(r, cfg)
			checkFlatInvariants(t, a, cfg)
			checkFlatInvariants(t, b, cfg)
			d := a.agreement(b)
			if d < 0 || d > int32(cfg.Ways) {
				t.Fatalf("agreement depth %d outside [0, %d]", d, cfg.Ways)
			}
			if b.agreement(a) != d {
				t.Fatalf("agreement not symmetric: %d vs %d", d, b.agreement(a))
			}
			if (d == int32(cfg.Ways)) != a.equal(b) {
				t.Fatalf("agreement depth %d of %d ways, equal=%v", d, cfg.Ways, a.equal(b))
			}
			for k := int32(1); k <= int32(cfg.Ways); k++ {
				if got := truncEqual(a, b, k); got != (k <= d) {
					t.Fatalf("agreement depth %d, but %d-way truncations equal=%v", d, k, got)
				}
			}
		}
	})
}
