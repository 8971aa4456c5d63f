// The one exact searcher behind every exhaustive and branch-and-bound pass.
//
// exact walks a joint cache-partition + schedule box as a depth-first tree:
// the shared subspace first, then the way partitions one application at a
// time (w_i >= 1, at least one way left per remaining application, in
// lexicographic order), and under each regime its sched.FeasibleTree (m
// from 1 to maxM per dimension, last dimension fastest). The tree's
// infeasibility cut removes exactly the idle-infeasible points, so without
// a Bounder the surviving leaves are the feasible box in enumeration order
// — the brute-force baseline the paper compares against. The schedule box
// is the shared subspace of a table with no partitions.
//
// With a Bounder every prefix, of a partition and of a schedule, is also cut
// when an admissible upper bound on its completions cannot beat the
// incumbent. The fold keeps its best with a strict ">", and a subtree is cut
// only when its bound is <= the incumbent (so no point inside could have
// updated it), so the optimum and the shared-subspace optimum are the
// enumeration's, bit for bit, with fewer evaluations whenever a cut fires.
// internal/exp pins this equality on every golden platform.
//
// The bound is the paper-shaped decomposition P_all = sum_i w_i P_i: each
// application's weighted objective is bounded independently — assigned
// dimensions at their fixed (m_i, w_i) under the smallest gap any completion
// of the prefix can produce, free dimensions by their best case over the
// remaining choices — and the terms are accumulated in application order,
// exactly like the objective itself, so floating-point rounding cannot make
// the bound dip below a completion's true value (rounding is monotone).
package search

import (
	"math"

	"repro/internal/parallel"
	"repro/internal/sched"
)

// Bounder supplies admissible (never underestimating) per-application upper
// bounds on the weighted objective contribution w_i * P_i. Implementations
// must guarantee, for every feasible completion of a search prefix:
//
//   - AppAt(i, w, m, minGap) >= w_i * P_i whenever application i runs bursts
//     of length m on w dedicated ways (w == 0: the shared cache) and its gap
//     is at least minGap — gaps only grow as free dimensions are fixed;
//   - AppBest(i, w) >= AppAt(i, w, m, g) for every burst length m in the
//     search box and every gap g >= 0.
//
// engine.TimingBounder, the tight closed-form bound for ObjectiveTiming, is
// the one implementation outside tests; engine.runJoint says why the design
// objective runs unbounded.
type Bounder interface {
	AppAt(i, w, m int, minGap float64) float64
	AppBest(i, w int) float64
}

// getter is a cache lookup of a joint point: JointCache.Get, or a wrapper
// mapping the point into another cache's space (the schedule cache, and the
// per-core solves of multicore.go).
type getter func(sched.JointSchedule) (Outcome, bool, error)

// exactChunk is the number of surviving leaves an exact pass without a
// bound copies out of the traversal and evaluates at once.
const exactChunk = 256

// exactSearch carries one exact pass.
type exactSearch struct {
	get     getter
	pt      sched.PartitionTimings
	bound   Bounder // nil: no bound cut
	maxM    int
	n       int
	total   int // total ways
	workers int
	res     *JointExhaustiveResult

	// The uniform side of exactUniform's walk (uni nil otherwise): the
	// even split's per-application way count, whether the uniform side
	// walks the current node (the shared subspace and the even split's
	// prefixes), and whether res's side has cut it, so only the uniform
	// side walks on.
	uni   *JointExhaustiveResult
	evenW int
	uniOn bool
	coCut bool

	ways    sched.Ways          // the regime's partition; all zero for the shared cache
	timings []sched.AppTiming   // a partition's timing vector
	tree    *sched.FeasibleTree // the regime's schedule box; tree.Cur is the point

	// Admissible per-app bound tables (see boundTables), with a bound only.
	appBest     [][]float64
	wayBestUpTo [][]float64

	// The chunk of surviving leaves awaiting evaluation. A one-point chunk
	// is the traversal's own buffers; in a larger one leaf k is the 2n ints
	// from 2n*k on, its schedule followed by its ways.
	size  int
	chunk []int
	outs  []Outcome
	errs  []error
}

// exact is the one exact searcher over pt's box with burst lengths in
// [1, maxM] and every way partition. It evaluates points through get and
// folds them in enumeration order with a strict ">", keeping the best
// point overall and within the shared subspace.
//
// Surviving leaves are evaluated in chunks and folded in order. With a
// bound a chunk holds one point, so every cut sees the incumbent as of the
// previous leaf. Without one no cut reads the incumbent, so leaves are
// copied into a reused chunk of exactChunk points, evaluated concurrently
// over the process-wide governor (internal/parallel) with workers capping
// this search's share of the executor — or chunks of one point when a
// single worker would evaluate them in order anyway. The visits and the
// fold never depend on workers, so no result does: the first failing point
// in enumeration order is the error returned.
func exact(get getter, pt sched.PartitionTimings, bound Bounder, maxM, workers int) (*JointExhaustiveResult, error) {
	var s exactSearch
	if err := s.init(get, pt, bound, maxM, workers); err != nil {
		return nil, err
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.res, nil
}

// exactUniform is exact's serial walk with a second incumbent: uni, the
// uniform-partitioning restriction of the box — the shared subspace plus
// the even split sched.EvenWays gives. Each point is evaluated once for
// both sides. In the shared subspace the two incumbents are equal, so one
// cut serves both. Other partitions are cut against co's incumbent. On the
// even split's prefixes and in its regime a node is skipped only when
// uni's incumbent, which never exceeds co's as the bound is admissible,
// cuts it too; below a node only co's side cut, the walk goes on for uni
// alone and nothing it visits counts toward co. So co is exactly exact's
// result, every counter included, and uni is the strict-">" fold of the
// uniform box under the same bound, whose optimum is the unbounded one bit
// for bit.
func exactUniform(get getter, pt sched.PartitionTimings, bound Bounder, maxM int) (co, uni *JointExhaustiveResult, err error) {
	var s exactSearch
	if err := s.init(get, pt, bound, maxM, 1); err != nil {
		return nil, nil, err
	}
	s.uni = &JointExhaustiveResult{BestValue: math.Inf(-1), BestSharedValue: math.Inf(-1)}
	s.evenW = s.total / s.n
	s.uniOn = true
	if err := s.run(); err != nil {
		return nil, nil, err
	}
	return s.res, s.uni, nil
}

// init validates pt and maxM and sets s up for one pass.
func (s *exactSearch) init(get getter, pt sched.PartitionTimings, bound Bounder, maxM, workers int) error {
	tree, err := sched.NewFeasibleTree(pt.Shared, maxM)
	if err != nil {
		return err
	}
	if err := pt.Validate(); err != nil {
		return err
	}
	n := pt.Apps()
	*s = exactSearch{
		get:     get,
		pt:      pt,
		bound:   bound,
		maxM:    maxM,
		n:       n,
		total:   pt.TotalWays(),
		workers: workers,
		res:     &JointExhaustiveResult{BestValue: math.Inf(-1), BestSharedValue: math.Inf(-1)},
		ways:    make(sched.Ways, n),
		tree:    tree,
		size:    exactChunk,
	}
	if bound != nil {
		s.appBest, s.wayBestUpTo = boundTables(bound, n, s.total)
	}
	if bound != nil || workers <= 1 {
		s.size = 1
	}
	return nil
}

// run walks the shared subspace, whose incumbent is the shared incumbent
// (so cuts can never lose the shared-subspace optimum either), then every
// partition.
func (s *exactSearch) run() error {
	if err := s.schedDFS(0); err != nil {
		return err
	}
	if s.total >= s.n {
		s.timings = make([]sched.AppTiming, s.n)
		if err := s.waysDFS(0, 0); err != nil {
			return err
		}
	}
	return s.flush()
}

// boundTables tabulates a Bounder's admissible per-app bounds over every
// way count of a total-way cache: appBest[i][w] = AppBest(i, w) (w == 0:
// shared) and wayBestUpTo[i][w] = max over 1..w of appBest[i][.] — the
// bound of an app whose way count is still free under a budget of w.
func boundTables(bound Bounder, n, total int) (appBest, wayBestUpTo [][]float64) {
	appBest = make([][]float64, n)
	wayBestUpTo = make([][]float64, n)
	for i := 0; i < n; i++ {
		appBest[i] = make([]float64, total+1)
		wayBestUpTo[i] = make([]float64, total+1)
		for w := 0; w <= total; w++ {
			appBest[i][w] = bound.AppBest(i, w)
		}
		wayBestUpTo[i][0] = math.Inf(-1) // no budget: no partition exists
		for w := 1; w <= total; w++ {
			wayBestUpTo[i][w] = wayBestUpTo[i][w-1]
			if appBest[i][w] > wayBestUpTo[i][w] {
				wayBestUpTo[i][w] = appBest[i][w]
			}
		}
	}
	return appBest, wayBestUpTo
}

// waysDFS fixes the partition one application at a time; each prefix is
// bounded before descending, and a complete partition's regime is walked.
func (s *exactSearch) waysDFS(i, used int) error {
	if i == s.n {
		for k := range s.timings {
			s.timings[k] = s.pt.ByWays[s.ways[k]-1][k]
		}
		if err := s.tree.Reset(s.timings); err != nil {
			return err
		}
		return s.schedDFS(0)
	}
	coCut := s.coCut
	if s.cutWays(i, used) {
		return nil
	}
	uniOn := s.uniOn
	lo, hi := 1, s.total-used-(s.n-1-i)
	if s.coCut {
		lo, hi = s.evenW, s.evenW // the uniform side alone walks on
	}
	for w := lo; w <= hi; w++ {
		s.ways[i] = w
		s.uniOn = uniOn && w == s.evenW
		if err := s.waysDFS(i+1, used+w); err != nil {
			return err
		}
	}
	s.uniOn, s.coCut = uniOn, coCut
	return nil
}

// cutWays reports whether the partition prefix ways[0..k-1] (using `used`
// ways) can be cut: assigned applications are bounded at their fixed way
// count over any schedule, free ones by their best case over the way budget
// they could still receive.
func (s *exactSearch) cutWays(k, used int) bool {
	if !s.mayCut() {
		return false
	}
	free := s.n - k
	cap := s.total - used - (free - 1) // per-app maximum: others take >= 1 each
	ub := 0.0
	for i := 0; i < s.n; i++ {
		if i < k {
			ub += s.appBest[i][s.ways[i]]
		} else {
			ub += s.wayBestUpTo[i][cap]
		}
	}
	return s.cut(ub)
}

// schedDFS walks the regime's sched.FeasibleTree below the prefix
// Cur[0..d-1], which the caller has found feasible (the empty prefix
// always is). Every node — including the leaf — is checked for the bound
// cut; every child, before it is entered, for the tree's infeasibility cut
// (which at the leaf coincides with sched.IdleFeasible).
//
// Once a child m >= 2 is infeasible, so is every later sibling, and the
// loop ends there. For m >= 2 the assigned application d's longest period
// is max(Ewc(1), Ewc(2) + gap) whatever m is (the m-2 middle periods
// Ewc(2) never exceed the last), and its gap sums the other bursts, which
// do not involve m. A larger m lengthens d's burst (Ewc(2) > 0), so every
// other application's gap, and with it its longest period, only grows —
// bitwise too, as in the tree's own cut. So whichever application broke
// its budget at m still breaks it at m+1. The step from m = 1 to 2 is not
// monotone: d's longest period drops from Ewc(1) + gap to
// max(Ewc(1), Ewc(2) + gap), so an infeasible m = 1 ends nothing.
func (s *exactSearch) schedDFS(d int) error {
	coCut := s.coCut
	if s.cutBound(d) {
		return nil
	}
	if d == s.n {
		err := s.leaf()
		s.coCut = coCut
		return err
	}
	for m := 1; m <= s.maxM; m++ {
		s.tree.Cur[d] = m
		if s.tree.PrefixInfeasible(d + 1) {
			if m >= 2 {
				break
			}
			continue
		}
		if err := s.schedDFS(d + 1); err != nil {
			return err
		}
	}
	s.coCut = coCut
	return nil
}

// cutBound reports whether the admissible upper bound of the feasible
// prefix cur[0..d-1] cannot beat the incumbent: assigned applications at
// their burst length under the minimal gap of the prefix (recorded by the
// tree's infeasibility check), free ones at their best.
func (s *exactSearch) cutBound(d int) bool {
	if !s.mayCut() {
		return false
	}
	ub := 0.0
	for i := 0; i < s.n; i++ {
		if i < d {
			ub += s.bound.AppAt(i, s.ways[i], s.tree.Cur[i], s.tree.MinGap(i))
		} else {
			ub += s.appBest[i][s.ways[i]]
		}
	}
	return s.cut(ub)
}

// mayCut reports whether a bound cut can fire: there is a bound, and a
// side still walking the node has an incumbent (the uniform side's implies
// co's).
func (s *exactSearch) mayCut() bool {
	if s.bound == nil {
		return false
	}
	if s.coCut {
		return s.uni.FoundBest
	}
	return s.res.FoundBest
}

// cut applies the bound ub of the current node's completions and reports
// whether the walk skips the node: when ub cannot beat co's incumbent (or
// co's side cut an ancestor) and the uniform side does not walk the node
// or cannot beat its own incumbent either. When only co's side cuts, it
// sets coCut, which the caller restores after the node, and the walk goes
// on for the uniform side. Each side that cuts here counts one pruned
// subtree.
func (s *exactSearch) cut(ub float64) bool {
	if !s.coCut {
		if ub > s.res.BestValue {
			return false // uni's incumbent is no higher: neither side cuts
		}
		s.res.Pruned++
	}
	if !s.uniOn {
		return true
	}
	if s.uni.FoundBest && ub <= s.uni.BestValue {
		s.uni.Pruned++
		return true
	}
	s.coCut = true
	return false
}

// leaf evaluates and folds a surviving point: at once when chunks hold
// one point, else when its chunk is full. Either way the evaluator gets a
// view it must not retain, and the fold clones a point only when it
// becomes an incumbent.
func (s *exactSearch) leaf() error {
	if s.size == 1 {
		j := jointView(s.tree.Cur, s.ways)
		out, _, err := s.get(j)
		if err != nil {
			return err
		}
		if !s.coCut {
			s.res.add(j, out, j.Shared())
		}
		if s.uniOn {
			s.uni.add(j, out, false)
		}
		return nil
	}
	s.chunk = append(append(s.chunk, s.tree.Cur...), s.ways...)
	if len(s.chunk) == 2*s.n*s.size {
		return s.flush()
	}
	return nil
}

// flush evaluates the chunk over the governor and folds it in order.
func (s *exactSearch) flush() error {
	k := len(s.chunk) / (2 * s.n)
	if k == 0 {
		return nil
	}
	if s.outs == nil {
		s.outs, s.errs = make([]Outcome, s.size), make([]error, s.size)
	}
	get, chunk, n, outs, errs := s.get, s.chunk, s.n, s.outs, s.errs
	parallel.Default().ForEach(k, s.workers, func(i int) {
		outs[i], _, errs[i] = get(chunkPoint(chunk, n, i))
	})
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			return errs[i]
		}
		p := chunkPoint(chunk, n, i)
		s.res.add(p, outs[i], p.Shared())
	}
	s.chunk = chunk[:0]
	return nil
}

// chunkPoint returns leaf k of a chunk of n-application leaves.
func chunkPoint(chunk []int, n, k int) sched.JointSchedule {
	at := 2 * n * k
	return jointView(chunk[at:at+n:at+n], chunk[at+n:at+2*n:at+2*n])
}

// jointView is the joint point of schedule m under the partition w, which
// is all zero for the shared cache.
func jointView(m, w []int) sched.JointSchedule {
	if w[0] == 0 {
		return sched.JointSchedule{M: m}
	}
	return sched.JointSchedule{M: m, W: w}
}
