// Branch-and-bound over the joint cache-partition + schedule box.
//
// JointBranchBound explores exactly the box JointExhaustiveCached enumerates
// — the shared subspace first, then every partition in WalkPartitions
// order with its schedules in EnumerateFeasible order — but walks it as a
// depth-first tree and cuts subtrees an admissible upper bound proves cannot
// beat the incumbent. Because the exhaustive baseline updates its best with
// a strict ">", and a subtree is cut only when its bound is <= the incumbent
// (so no point inside could have updated), the branch-and-bound optimum is
// the *identical* point, bit for bit — with strictly fewer evaluations
// whenever any cut fires. internal/exp pins this equality on every golden
// platform.
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
	"fmt"
	"math"

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
// engine.TimingBounder implements the tight closed-form bound for
// ObjectiveTiming; TrivialBounder is the objective-agnostic fallback.
type Bounder interface {
	AppAt(i, w, m int, minGap float64) float64
	AppBest(i, w int) float64
}

// trivialBounder bounds every application by its weight: P_i <= 1 by
// construction (performance cannot exceed the reference), so w_i is always
// admissible. It prunes only boxes whose incumbent already reaches the
// weight sum — essentially never — but it is valid for any objective,
// making branch-and-bound safe as a drop-in exact baseline.
type trivialBounder struct{ weights []float64 }

func (b trivialBounder) AppAt(i, w, m int, minGap float64) float64 { return b.weights[i] }
func (b trivialBounder) AppBest(i, w int) float64                  { return b.weights[i] }

// TrivialBounder returns the objective-agnostic admissible bound w_i * 1
// per application (P_i <= 1 for every objective in this repo).
func TrivialBounder(weights []float64) Bounder { return trivialBounder{weights} }

// JointBranchBoundResult is a JointExhaustiveResult computed by
// branch-and-bound: Evaluated counts the feasible points actually visited
// (<= the exhaustive box size, strictly smaller when Pruned > 0), and the
// Best/BestShared fields are bit-identical to the exhaustive baseline's.
type JointBranchBoundResult struct {
	JointExhaustiveResult
	// Pruned counts the subtrees cut by the admissible bound (cuts by
	// infeasibility of a schedule prefix are not counted: the exhaustive
	// baseline never evaluates infeasible points either, so only bound
	// cuts reduce Evaluated relative to it).
	Pruned int
}

// bbState carries one branch-and-bound traversal. The search is serial by
// design: depth-first order is what guarantees the incumbent — and with it
// every cut decision and the evaluation count — is deterministic.
type bbState struct {
	get   getter[sched.JointSchedule]
	pt    sched.PartitionTimings
	bound Bounder
	maxM  int
	n     int
	total int // total ways
	res   *JointBranchBoundResult

	shared  bool
	ways    sched.Ways          // nil during the shared phase
	timings []sched.AppTiming   // current regime's timing vector
	tree    *sched.FeasibleTree // the regime's schedule box; tree.Cur is the point

	// Admissible per-app bound tables (see boundTables).
	appBest     [][]float64
	wayBestUpTo [][]float64
}

// JointBranchBound is the branch-and-bound exact baseline over the joint
// box: identical optimum (and shared-subspace optimum) to
// JointExhaustiveCached on the same cache, visiting only the points the
// admissible bound cannot rule out. The traversal is serial; evaluations
// still route through the (possibly tiered) cache, so hybrid walks and
// persistent stores share them as usual.
func JointBranchBound(cache *JointCache, pt sched.PartitionTimings, bound Bounder, maxM int) (*JointBranchBoundResult, error) {
	return jointBranchBound(cache.Get, pt, bound, maxM)
}

func jointBranchBound(get getter[sched.JointSchedule], pt sched.PartitionTimings, bound Bounder, maxM int) (*JointBranchBoundResult, error) {
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	if bound == nil {
		return nil, fmt.Errorf("search: branch-and-bound requires a Bounder")
	}
	if maxM < 1 {
		return nil, fmt.Errorf("search: branch-and-bound maxM %d < 1", maxM)
	}
	tree, err := sched.NewFeasibleTree(pt.Shared, maxM)
	if err != nil {
		return nil, err
	}
	n := pt.Apps()
	s := &bbState{
		get:   get,
		pt:    pt,
		bound: bound,
		maxM:  maxM,
		n:     n,
		total: pt.TotalWays(),
		res: &JointBranchBoundResult{
			JointExhaustiveResult: JointExhaustiveResult{
				BestValue:       math.Inf(-1),
				BestSharedValue: math.Inf(-1),
			},
		},
		tree: tree,
	}
	s.appBest, s.wayBestUpTo = boundTables(bound, n, s.total)

	// Phase 1: the shared subspace, exactly EnumerateFeasible(pt.Shared)'s
	// box. The incumbent during this phase is the shared incumbent, so cuts
	// can never lose the shared-subspace optimum either.
	s.shared = true
	s.timings = pt.Shared
	if err := s.schedDFS(0); err != nil {
		return nil, err
	}

	// Phase 2: every partition, in sched.WalkPartitions order.
	s.shared = false
	if s.total >= n {
		s.ways = make(sched.Ways, n)
		s.timings = make([]sched.AppTiming, n)
		if err := s.waysDFS(0, 0); err != nil {
			return nil, err
		}
	}
	return s.res, nil
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

// wayOf returns the current regime's way count of application i (0 =
// shared cache).
func (s *bbState) wayOf(i int) int {
	if s.ways == nil {
		return 0
	}
	return s.ways[i]
}

// waysDFS fixes the partition one application at a time, mirroring
// sched.WalkPartitions' recursion (w_i >= 1, at least one way left per
// remaining application). Each prefix is bounded before descending.
func (s *bbState) waysDFS(i, used int) error {
	if i == s.n {
		for k := 0; k < s.n; k++ {
			s.timings[k] = s.pt.ByWays[s.ways[k]-1][k]
		}
		if err := s.tree.Reset(s.timings); err != nil {
			return err
		}
		return s.schedDFS(0)
	}
	if s.cutWays(i, used) {
		s.res.Pruned++
		return nil
	}
	for w := 1; used+w+(s.n-1-i) <= s.total; w++ {
		s.ways[i] = w
		if err := s.waysDFS(i+1, used+w); err != nil {
			return err
		}
	}
	return nil
}

// cutWays reports whether the partition prefix ways[0..k-1] (using `used`
// ways) can be cut: assigned applications are bounded at their fixed way
// count over any schedule, free ones by their best case over the way budget
// they could still receive.
func (s *bbState) cutWays(k, used int) bool {
	if !s.res.FoundBest {
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
	return ub <= s.res.BestValue
}

// schedDFS walks the regime's sched.FeasibleTree in its odometer order (m
// from 1 to maxM per dimension, last dimension fastest == depth-first
// preorder == sched.EnumerateFeasible's order). Every node — including the
// leaf — is first checked for the tree's infeasibility cut (which at the
// leaf coincides with sched.IdleFeasible), then for the bound cut.
func (s *bbState) schedDFS(d int) error {
	if s.tree.PrefixInfeasible(d) {
		return nil
	}
	if s.cutBound(d) {
		s.res.Pruned++
		return nil
	}
	if d == s.n {
		return s.visitLeaf()
	}
	for m := 1; m <= s.maxM; m++ {
		s.tree.Cur[d] = m
		if err := s.schedDFS(d + 1); err != nil {
			return err
		}
	}
	return nil
}

// cutBound reports whether the admissible upper bound of the feasible
// prefix cur[0..d-1] cannot beat the incumbent. The bound accumulates
// weighted per-app terms in application order, mirroring the objective's
// own summation, so term-wise admissibility survives rounding: assigned
// applications at their burst length under the minimal gap of the prefix
// (recorded by the tree's infeasibility check), free ones at their best.
func (s *bbState) cutBound(d int) bool {
	if !s.res.FoundBest {
		return false
	}
	ub := 0.0
	for i := 0; i < s.n; i++ {
		if i < d {
			ub += s.bound.AppAt(i, s.wayOf(i), s.tree.Cur[i], s.tree.MinGap(i))
		} else {
			ub += s.appBest[i][s.wayOf(i)]
		}
	}
	return ub <= s.res.BestValue
}

// visitLeaf evaluates one surviving point. The infeasibility cut at d == n
// already established idle feasibility, so every visited leaf is a point
// the exhaustive enumeration would have listed; counting and best-updates
// match JointExhaustiveCached's reduction exactly. The point is the
// traversal's own buffers: the evaluator must not retain it, and the
// reduction clones it only when it becomes an incumbent.
func (s *bbState) visitLeaf() error {
	j := sched.JointSchedule{M: s.tree.Cur, W: s.ways}
	out, _, err := s.get(j)
	if err != nil {
		return err
	}
	s.res.add(j, out, s.shared)
	return nil
}
