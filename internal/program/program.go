// Package program models the control programs whose instruction streams the
// WCET analysis executes against the cache model: a structured control-flow
// graph over cache-line-granular code blocks placed at flash addresses.
//
// The paper's analysis only needs worst-case instruction-fetch traces and
// per-path block footprints; a structured CFG (sequence / branch / counted
// loop) is exactly expressive enough for that while keeping loop bounds
// explicit, as WCET tools require.
package program

import (
	"fmt"
	"sort"
)

// Node is one element of a structured control-flow graph. The concrete
// types are Line, Seq, Loop, and Branch.
type Node interface {
	node()
}

// Line is one cache line's worth of straight-line code: Fetches instruction
// fetches, all falling inside the line that starts at Addr. Addr must be
// line-aligned with respect to the platform cache configuration.
type Line struct {
	Addr    uint32
	Fetches int
}

// Seq executes its children in order.
type Seq []Node

// Loop executes Body exactly Count times; Count is the loop bound used by
// the worst-case analysis.
type Loop struct {
	Body  Node
	Count int
}

// Branch executes either Then or Else; the worst-case analysis considers
// both. Else may be nil (an if without else).
type Branch struct {
	Then Node
	Else Node
}

func (Line) node()   {}
func (Seq) node()    {}
func (Loop) node()   {}
func (Branch) node() {}

// Program is a named control program: a CFG rooted at Root.
type Program struct {
	Name string
	Root Node
}

// Validate checks structural soundness: positive fetch counts, positive
// loop bounds, line-aligned addresses for the given line size, and that
// every Line's fetches fit plausibly in one line (at least one fetch).
func (p *Program) Validate(lineSize int) error {
	if p.Root == nil {
		return fmt.Errorf("program %q: nil root", p.Name)
	}
	return walk(p.Root, func(n Node) error {
		switch v := n.(type) {
		case Line:
			if v.Fetches <= 0 {
				return fmt.Errorf("program %q: line 0x%x has %d fetches", p.Name, v.Addr, v.Fetches)
			}
			if lineSize > 0 && v.Addr%uint32(lineSize) != 0 {
				return fmt.Errorf("program %q: line address 0x%x not aligned to %d", p.Name, v.Addr, lineSize)
			}
		case Loop:
			if v.Count <= 0 {
				return fmt.Errorf("program %q: loop bound %d must be positive", p.Name, v.Count)
			}
			if v.Body == nil {
				return fmt.Errorf("program %q: loop with nil body", p.Name)
			}
		case Branch:
			if v.Then == nil && v.Else == nil {
				return fmt.Errorf("program %q: branch with two nil arms", p.Name)
			}
		}
		return nil
	})
}

// walk visits every node of the CFG once (loops are not unrolled).
func walk(n Node, f func(Node) error) error {
	if n == nil {
		return nil
	}
	if err := f(n); err != nil {
		return err
	}
	switch v := n.(type) {
	case Seq:
		for _, c := range v {
			if err := walk(c, f); err != nil {
				return err
			}
		}
	case Loop:
		return walk(v.Body, f)
	case Branch:
		if err := walk(v.Then, f); err != nil {
			return err
		}
		return walk(v.Else, f)
	}
	return nil
}

// Lines returns the distinct line addresses referenced anywhere in the
// program, sorted ascending.
func (p *Program) Lines() []uint32 {
	seen := make(map[uint32]bool)
	walk(p.Root, func(n Node) error {
		if l, ok := n.(Line); ok {
			seen[l.Addr] = true
		}
		return nil
	})
	out := make([]uint32, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Access is one element of an instruction-fetch trace: Fetches consecutive
// fetches inside the line at Addr.
type Access struct {
	Addr    uint32
	Fetches int
}

// PathChooser decides which arm of a Branch a trace takes. It is called
// with the branch and must return true for Then, false for Else.
type PathChooser func(b Branch) bool

// ThenChooser always takes the Then arm; it is the deterministic tie-break
// used when both arms have equal worst-case cost.
func ThenChooser(Branch) bool { return true }

// Trace flattens the program into a linear fetch trace (loops unrolled to
// their bounds) using chooser at every branch. A nil chooser takes Then.
func (p *Program) Trace(chooser PathChooser) []Access {
	if chooser == nil {
		chooser = ThenChooser
	}
	var out []Access
	var emit func(n Node)
	emit = func(n Node) {
		switch v := n.(type) {
		case nil:
		case Line:
			out = append(out, Access{Addr: v.Addr, Fetches: v.Fetches})
		case Seq:
			for _, c := range v {
				emit(c)
			}
		case Loop:
			for i := 0; i < v.Count; i++ {
				emit(v.Body)
			}
		case Branch:
			if chooser(v) {
				if v.Then != nil {
					emit(v.Then)
				}
			} else if v.Else != nil {
				emit(v.Else)
			}
		}
	}
	emit(p.Root)
	return out
}

// MaxFetches returns the total instruction fetches along the structurally
// longest path (loops at their bounds, branches taking the arm with more
// fetches). This is a cache-oblivious upper-bound skeleton used by tests.
func (p *Program) MaxFetches() int {
	var count func(n Node) int
	count = func(n Node) int {
		switch v := n.(type) {
		case nil:
			return 0
		case Line:
			return v.Fetches
		case Seq:
			s := 0
			for _, c := range v {
				s += count(c)
			}
			return s
		case Loop:
			return v.Count * count(v.Body)
		case Branch:
			t, e := count(v.Then), count(v.Else)
			if t >= e {
				return t
			}
			return e
		}
		return 0
	}
	return count(p.Root)
}

// ContiguousLines builds a Seq of n one-line nodes starting at addr, each
// with the given fetch count. It is the basic building block for synthetic
// straight-line code sections.
func ContiguousLines(addr uint32, n, fetches, lineSize int) Seq {
	s := make(Seq, n)
	for i := 0; i < n; i++ {
		s[i] = Line{Addr: addr + uint32(i*lineSize), Fetches: fetches}
	}
	return s
}
