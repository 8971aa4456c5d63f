package program

import (
	"testing"
)

// BranchCount returns the number of Branch nodes in the program; only
// the tests count them.
func (p *Program) BranchCount() int {
	n := 0
	walk(p.Root, func(nd Node) error {
		if _, ok := nd.(Branch); ok {
			n++
		}
		return nil
	})
	return n
}

func simpleProgram() *Program {
	return &Program{
		Name: "simple",
		Root: Seq{
			Line{Addr: 0x00, Fetches: 4},
			Loop{Body: Seq{Line{Addr: 0x10, Fetches: 8}, Line{Addr: 0x20, Fetches: 8}}, Count: 3},
			Branch{
				Then: Line{Addr: 0x30, Fetches: 4},
				Else: Line{Addr: 0x40, Fetches: 2},
			},
			Line{Addr: 0x50, Fetches: 6},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := simpleProgram().Validate(16); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		p    *Program
	}{
		{"nil root", &Program{Name: "x"}},
		{"zero fetches", &Program{Name: "x", Root: Line{Addr: 0, Fetches: 0}}},
		{"unaligned", &Program{Name: "x", Root: Line{Addr: 0x8, Fetches: 1}}},
		{"bad loop bound", &Program{Name: "x", Root: Loop{Body: Line{Addr: 0, Fetches: 1}, Count: 0}}},
		{"nil loop body", &Program{Name: "x", Root: Loop{Count: 3}}},
		{"empty branch", &Program{Name: "x", Root: Branch{}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(16); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestLines(t *testing.T) {
	lines := simpleProgram().Lines()
	want := []uint32{0x00, 0x10, 0x20, 0x30, 0x40, 0x50}
	if len(lines) != len(want) {
		t.Fatalf("lines: %v", lines)
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("lines[%d] = %#x, want %#x", i, lines[i], w)
		}
	}
}

func TestTraceThenChooser(t *testing.T) {
	tr := simpleProgram().Trace(nil)
	// 1 + 3*2 + 1 (then) + 1 = 9 accesses
	if len(tr) != 9 {
		t.Fatalf("trace length = %d, want 9; %v", len(tr), tr)
	}
	if tr[1].Addr != 0x10 || tr[2].Addr != 0x20 || tr[3].Addr != 0x10 {
		t.Error("loop not unrolled in order")
	}
	if tr[7].Addr != 0x30 {
		t.Errorf("then-arm not taken: %#x", tr[7].Addr)
	}
}

func TestTraceElseChooser(t *testing.T) {
	tr := simpleProgram().Trace(func(Branch) bool { return false })
	if tr[7].Addr != 0x40 {
		t.Errorf("else-arm not taken: %#x", tr[7].Addr)
	}
}

func TestTraceNilElse(t *testing.T) {
	p := &Program{Name: "x", Root: Branch{Then: Line{Addr: 0, Fetches: 1}}}
	tr := p.Trace(func(Branch) bool { return false })
	if len(tr) != 0 {
		t.Errorf("nil else arm should produce empty trace, got %v", tr)
	}
}

func TestMaxFetches(t *testing.T) {
	// 4 + 3*(8+8) + max(4,2) + 6 = 62
	if got := simpleProgram().MaxFetches(); got != 62 {
		t.Errorf("MaxFetches = %d, want 62", got)
	}
}

func TestBranchCount(t *testing.T) {
	if simpleProgram().BranchCount() != 1 {
		t.Error("BranchCount wrong")
	}
	nested := &Program{Name: "n", Root: Branch{
		Then: Branch{Then: Line{Addr: 0, Fetches: 1}},
		Else: Line{Addr: 16, Fetches: 1},
	}}
	if nested.BranchCount() != 2 {
		t.Error("nested BranchCount wrong")
	}
}

func TestContiguousLines(t *testing.T) {
	s := ContiguousLines(0x100, 3, 8, 16)
	if len(s) != 3 {
		t.Fatalf("len = %d", len(s))
	}
	for i, n := range s {
		l := n.(Line)
		if l.Addr != 0x100+uint32(i*16) || l.Fetches != 8 {
			t.Errorf("line %d: %+v", i, l)
		}
	}
}

func TestValidateZeroLineSizeSkipsAlignment(t *testing.T) {
	p := &Program{Name: "x", Root: Line{Addr: 0x8, Fetches: 1}}
	if err := p.Validate(0); err != nil {
		t.Errorf("lineSize=0 should skip alignment check: %v", err)
	}
}
