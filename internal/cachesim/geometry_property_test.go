package cachesim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// LineIndex and SetIndex are the division form of Geometry's address
// split, the oracle its shift/mask arithmetic is checked against.

// LineIndex returns the memory line number containing addr.
func (c Config) LineIndex(addr uint32) uint32 { return addr / uint32(c.LineSize) }

// SetIndex returns the cache set that the memory line at addr maps to.
func (c Config) SetIndex(addr uint32) int { return int(c.LineIndex(addr)) % c.Sets() }

// Property: for randomized power-of-two geometries, the shift/mask address
// decomposition of Geometry equals the naive div/mod reference on arbitrary
// addresses, and the three accessors agree with Locate.
func TestQuickGeometryMatchesDivModReference(t *testing.T) {
	f := func(seed int64, addrs []uint32) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			Lines:      1 << (3 + r.Intn(8)), // 8 .. 1024
			LineSize:   1 << (2 + r.Intn(5)), // 4 .. 64
			Ways:       1 << r.Intn(3),       // 1, 2, 4
			Policy:     Policy(r.Intn(2)),    // LRU or FIFO
			HitCycles:  1,
			MissCycles: 100,
		}
		if cfg.Lines%cfg.Ways != 0 {
			return true // skip invalid combinations (Lines >= 8 >= Ways here, so none)
		}
		if err := cfg.Validate(); err != nil {
			return false
		}
		g := cfg.Geometry()
		addrs = append(addrs, 0, 1, ^uint32(0), uint32(cfg.SizeBytes()), uint32(cfg.SizeBytes())-1)
		for _, addr := range addrs {
			// Naive reference: pure integer division and modulo.
			line := addr / uint32(cfg.LineSize)
			set := int(line % uint32(cfg.Sets()))
			tag := line / uint32(cfg.Sets())

			gl, gs, gt := g.Locate(addr)
			if gl != line || gs != set || gt != tag {
				return false
			}
			if g.Line(addr) != line || g.Set(line) != set || g.Tag(line) != tag {
				return false
			}
			// The decomposition must be invertible: (tag, set) recover the line.
			if tag*uint32(cfg.Sets())+uint32(set) != line {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: non-power-of-two set counts still decompose correctly through
// the div/mod fallback path (setsPow2 == false).
func TestQuickGeometryNonPow2Sets(t *testing.T) {
	f := func(seed int64, addrs []uint32) bool {
		r := rand.New(rand.NewSource(seed))
		sets := 3 + r.Intn(61)
		if sets&(sets-1) == 0 {
			sets++ // force a non-power-of-two set count
		}
		cfg := Config{
			Lines: sets, LineSize: 16, Ways: 1, Policy: LRU, HitCycles: 1, MissCycles: 100,
		}
		if err := cfg.Validate(); err != nil {
			return false
		}
		g := cfg.Geometry()
		for _, addr := range addrs {
			line := addr / uint32(cfg.LineSize)
			if g.Set(line) != int(line%uint32(sets)) || g.Tag(line) != line/uint32(sets) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The constructor must reject non-power-of-two counts where the geometry
// depends on them, with an error naming the offending field.
func TestNewRejectsNonPowerOfTwoCounts(t *testing.T) {
	base := PaperConfig()

	lineSize := base
	lineSize.LineSize = 24
	if _, err := New(lineSize); err == nil || !strings.Contains(err.Error(), "LineSize") {
		t.Errorf("LineSize=24: err = %v, want a LineSize power-of-two error", err)
	}

	plru := base
	plru.Lines = 96
	plru.Ways = 3
	plru.Policy = PLRU
	if _, err := New(plru); err == nil || !strings.Contains(err.Error(), "PLRU") {
		t.Errorf("PLRU ways=3: err = %v, want a PLRU power-of-two error", err)
	}
}
