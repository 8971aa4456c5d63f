// Package pso implements the particle swarm optimization technique the
// paper uses for pole placement / controller-gain search (Section III,
// citing Sedighizadeh & Masehian's PSO taxonomy).
//
// It is a standard global-best PSO with inertia weight decay, velocity
// clamping, and reflecting box bounds. Runs are deterministic for a given
// seed; objective evaluations may be spread over multiple goroutines
// without affecting the result: particles are claimed from an atomic
// counter, every value lands in its index-addressed slot, and the
// reduction walks the slots in index order, so Minimize is bit-identical
// for any worker count.
//
// Parallel evaluation runs on a persistent worker pool created once per
// Minimize call: workers are signalled per evaluation round instead of
// being spawned per round (the pre-pool implementation created
// Particles × (Iterations+1) goroutines and a semaphore channel per round),
// and each holds its own objective instance (Problem.NewObjective) so
// per-worker scratch — compiled simulation plans' buffers, design
// workspaces — stays cache-hot across the particles a worker claims. The
// steady-state iteration performs zero heap allocations (pinned by
// TestMinimizeSteadyStateAllocs). Workers draw run permits from the
// process-wide concurrency governor (internal/parallel): a worker that gets
// no token in a round simply sits it out while the caller's goroutine
// evaluates inline, so a loaded box degrades to serial instead of
// oversubscribing.
//
// Objectives take a cutoff. A call may stop as soon as it proves its true
// value is >= cutoff, and then return any value >= cutoff (an early-exit
// bound, the value itself, ...); below the cutoff it must return the exact
// value. Minimize passes +Inf in the initial round and each particle's
// personal best after that, which is safe because the swarm only ever asks
// values[i] < pbestVal[i] and values[i] < gbestVal (gbestVal <= pbestVal[i]):
// a value >= the cutoff loses both comparisons whatever it is, so every
// decision, and with it the Result, is bit-identical to exact evaluation.
// Only exact values reach gbest, so Result.Value is exact too. Cut calls
// still count as evaluations.
package pso

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"repro/internal/parallel"
)

// Problem describes a box-constrained minimization problem.
type Problem struct {
	Dim   int
	Lower []float64 // len Dim
	Upper []float64 // len Dim
	// Objective evaluates x; see the package comment for the cutoff
	// contract.
	Objective func(x []float64, cutoff float64) float64
	// NewObjective, when non-nil, supplies an independent objective
	// instance per pool worker (typically a closure over private evaluation
	// scratch). Every instance must compute exactly the same function as
	// Objective; Minimize calls it once per worker it starts and uses
	// Objective itself on the calling goroutine.
	NewObjective func() func(x []float64, cutoff float64) float64
}

// Validate checks the problem definition.
func (p Problem) Validate() error {
	if p.Dim <= 0 {
		return fmt.Errorf("pso: dimension %d must be positive", p.Dim)
	}
	if len(p.Lower) != p.Dim || len(p.Upper) != p.Dim {
		return fmt.Errorf("pso: bounds length mismatch (dim %d, lower %d, upper %d)", p.Dim, len(p.Lower), len(p.Upper))
	}
	for i := range p.Lower {
		if !(p.Lower[i] < p.Upper[i]) {
			return fmt.Errorf("pso: bounds [%g, %g] invalid at dimension %d", p.Lower[i], p.Upper[i], i)
		}
	}
	if p.Objective == nil {
		return errors.New("pso: nil objective")
	}
	return nil
}

// Options tunes the swarm. Zero values select sensible defaults.
type Options struct {
	Particles    int     // swarm size (default 30)
	Iterations   int     // iteration budget (default 100)
	InertiaStart float64 // w at iteration 0 (default 0.9)
	InertiaEnd   float64 // w at the final iteration (default 0.4)
	Cognitive    float64 // c1 (default 1.8)
	Social       float64 // c2 (default 1.8)
	Seed         int64   // RNG seed (default 1)
	Workers      int     // parallel objective evaluations (default GOMAXPROCS)
	// Seeds optionally injects known-good starting positions (e.g. warm
	// starts from an analytic design); each must have length Dim and is
	// clamped to the bounds.
	Seeds      [][]float64
	StallLimit int // stop early after this many non-improving iterations (default: no early stop)
}

func (o Options) withDefaults() Options {
	if o.Particles <= 0 {
		o.Particles = 30
	}
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.InertiaStart == 0 {
		o.InertiaStart = 0.9
	}
	if o.InertiaEnd == 0 {
		o.InertiaEnd = 0.4
	}
	if o.Cognitive == 0 {
		o.Cognitive = 1.8
	}
	if o.Social == 0 {
		o.Social = 1.8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result is the outcome of a Minimize run.
type Result struct {
	X           []float64 // best position found
	Value       float64   // objective at X
	Iterations  int       // iterations performed
	Evaluations int       // objective evaluations performed
}

// Minimize runs PSO on the problem and returns the best point found.
func Minimize(p Problem, o Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed))

	n, d := o.Particles, p.Dim
	pos := make([][]float64, n)
	vel := make([][]float64, n)
	pbest := make([][]float64, n)
	pbestVal := make([]float64, n)
	for i := range pbestVal {
		pbestVal[i] = math.Inf(1) // the initial round's cutoff
	}
	vmax := make([]float64, d)
	for j := 0; j < d; j++ {
		vmax[j] = 0.5 * (p.Upper[j] - p.Lower[j])
	}
	for i := 0; i < n; i++ {
		pos[i] = make([]float64, d)
		vel[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			pos[i][j] = p.Lower[j] + rng.Float64()*(p.Upper[j]-p.Lower[j])
			vel[i][j] = (2*rng.Float64() - 1) * vmax[j] * 0.1
		}
	}
	// Overwrite the first particles with the provided seeds.
	for i, s := range o.Seeds {
		if i >= n {
			break
		}
		if len(s) != d {
			return nil, fmt.Errorf("pso: seed %d has dimension %d, want %d", i, len(s), d)
		}
		for j := 0; j < d; j++ {
			pos[i][j] = clamp(s[j], p.Lower[j], p.Upper[j])
		}
	}

	evals := 0
	values := make([]float64, n)
	pool := newEvalPool(p, o, pos, pbestVal, values)
	defer pool.stop()
	evaluate := func() {
		pool.run()
		evals += n
	}

	evaluate()
	gbest := make([]float64, d)
	gbestVal := math.Inf(1)
	for i := 0; i < n; i++ {
		pbest[i] = append([]float64(nil), pos[i]...)
		pbestVal[i] = values[i]
		if values[i] < gbestVal {
			gbestVal = values[i]
			copy(gbest, pos[i])
		}
	}

	stall := 0
	iters := 0
	for it := 0; it < o.Iterations; it++ {
		iters = it + 1
		w := o.InertiaStart + (o.InertiaEnd-o.InertiaStart)*float64(it)/float64(max(1, o.Iterations-1))
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				r1, r2 := rng.Float64(), rng.Float64()
				v := w*vel[i][j] +
					o.Cognitive*r1*(pbest[i][j]-pos[i][j]) +
					o.Social*r2*(gbest[j]-pos[i][j])
				v = clamp(v, -vmax[j], vmax[j])
				x := pos[i][j] + v
				// Reflect at the bounds.
				if x < p.Lower[j] {
					x = p.Lower[j] + (p.Lower[j] - x)
					v = -v
				}
				if x > p.Upper[j] {
					x = p.Upper[j] - (x - p.Upper[j])
					v = -v
				}
				pos[i][j] = clamp(x, p.Lower[j], p.Upper[j])
				vel[i][j] = v
			}
		}
		evaluate()
		improved := false
		for i := 0; i < n; i++ {
			if values[i] < pbestVal[i] {
				pbestVal[i] = values[i]
				copy(pbest[i], pos[i])
			}
			if values[i] < gbestVal {
				gbestVal = values[i]
				copy(gbest, pos[i])
				improved = true
			}
		}
		if improved {
			stall = 0
		} else {
			stall++
			if o.StallLimit > 0 && stall >= o.StallLimit {
				break
			}
		}
	}
	return &Result{X: gbest, Value: gbestVal, Iterations: iters, Evaluations: evals}, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// evalPool is the persistent evaluation worker pool of one Minimize run.
// The calling goroutine always participates in every round, so a round
// completes even when the governor grants no tokens; helpers are signalled
// over reused channels (one token-free struct{} send per helper per round —
// the steady-state round allocates nothing).
type evalPool struct {
	n       int
	pos     [][]float64
	cutoffs []float64 // the personal bests, written between rounds only
	values  []float64
	obj     func([]float64, float64) float64 // the caller's instance
	next    atomic.Int64
	helpers int
	start   chan struct{}
	done    chan struct{}
	exec    *parallel.Executor
}

func newEvalPool(p Problem, o Options, pos [][]float64, cutoffs, values []float64) *evalPool {
	ep := &evalPool{n: len(pos), pos: pos, cutoffs: cutoffs, values: values, obj: p.Objective, exec: parallel.Default()}
	workers := o.Workers
	if workers > ep.n {
		workers = ep.n
	}
	if workers <= 1 {
		return ep // serial: no helper goroutines at all
	}
	ep.helpers = workers - 1
	ep.start = make(chan struct{}, ep.helpers)
	ep.done = make(chan struct{}, ep.helpers)
	for w := 0; w < ep.helpers; w++ {
		go func() {
			// The objective instance (and any scratch it closes over) is
			// built lazily on the first round this helper actually joins:
			// on a token-saturated box a helper that only ever sits rounds
			// out costs one idle goroutine and nothing else.
			var obj func([]float64, float64) float64
			for range ep.start {
				// One governor token per participating helper per round:
				// with none to spare this round runs on the caller alone.
				if ep.exec.TryAcquire(1) {
					if obj == nil {
						if p.NewObjective != nil {
							obj = p.NewObjective()
						} else {
							obj = p.Objective
						}
					}
					ep.work(obj)
					ep.exec.Release(1)
				}
				ep.done <- struct{}{}
			}
			ep.done <- struct{}{} // exited: see stop
		}()
	}
	return ep
}

// work claims particles until the round's counter is exhausted.
func (ep *evalPool) work(obj func([]float64, float64) float64) {
	for {
		i := int(ep.next.Add(1)) - 1
		if i >= ep.n {
			return
		}
		ep.values[i] = obj(ep.pos[i], ep.cutoffs[i])
	}
}

// run evaluates all particles of one round into the values slots.
func (ep *evalPool) run() {
	ep.next.Store(0)
	for w := 0; w < ep.helpers; w++ {
		ep.start <- struct{}{}
	}
	ep.work(ep.obj)
	for w := 0; w < ep.helpers; w++ {
		<-ep.done
	}
}

// stop terminates the helper goroutines and waits for them to exit, so no
// helper (nor the objective scratch it holds) outlives the Minimize call
// and the next call's helpers reuse the exited goroutines.
func (ep *evalPool) stop() {
	if ep.start == nil {
		return
	}
	close(ep.start)
	for w := 0; w < ep.helpers; w++ {
		<-ep.done
	}
}
