package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"

	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/sched"
)

// Signature versioning: evalSchema namespaces persisted evaluation outcomes
// (search.Outcome records), resultSchema namespaces persisted per-scenario
// checkpoint records (ResultRecord). Bump the one whose payload semantics
// change incompatibly; old records then address different keys and are
// recomputed rather than misread.
// evalSchema stays at v1 across the multi-core extension: core-point keys
// are a compatible extension of the key space (their "c[...]|" prefix can
// never collide with schedule or joint keys), so single-core outcomes in
// existing stores remain valid and shareable. resultSchema went to v2 when
// the Cores/BranchBound axes (and the Multicore record payload) joined the
// checkpoint, and is at v3 because partitioned scenarios stopped walking
// duplicate shared-cache starts, which lowers their recorded cache hits.
// placementSchema versions the placement records of Cores > 1
// checkpoints alone, so single-core keys stay as they were: it is at v2
// because the uniform baseline's counters (Evaluated, Feasible, Subsets,
// SubtreesPruned, AssignmentsPruned) count a walk the bound cuts.
const (
	evalSchema      = "eval/v1"
	resultSchema    = "result/v3"
	placementSchema = "placement/v2"
)

// sigWriter accumulates the content hash of an evaluation space. All
// floating-point inputs are written as their IEEE-754 bit patterns, so two
// scenarios share a signature exactly when every number that can influence
// an evaluation is bit-identical.
type sigWriter struct {
	h io.Writer
}

func (w sigWriter) str(s string)  { fmt.Fprintf(w.h, "%d:%s|", len(s), s) }
func (w sigWriter) num(v int64)   { fmt.Fprintf(w.h, "%d|", v) }
func (w sigWriter) f64(v float64) { fmt.Fprintf(w.h, "%016x|", math.Float64bits(v)) }
func (w sigWriter) flag(b bool)   { fmt.Fprintf(w.h, "%v|", b) }

func (w sigWriter) ints(vs []int) {
	w.num(int64(len(vs)))
	for _, v := range vs {
		w.num(int64(v))
	}
}

func (w sigWriter) matrix(m *mat.Matrix) {
	if m == nil {
		w.num(-1)
		return
	}
	w.num(int64(m.Rows()))
	w.num(int64(m.Cols()))
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			w.f64(m.At(i, j))
		}
	}
}

func (w sigWriter) timings(ts []sched.AppTiming) {
	w.num(int64(len(ts)))
	for _, t := range ts {
		w.str(t.Name)
		w.f64(t.ColdWCET)
		w.f64(t.WarmWCET)
		w.f64(t.MaxIdle)
	}
}

// writeEvalSpace hashes everything the outcome of one schedule (or joint
// point) evaluation depends on: the objective, the platform, the derived
// taskset timings and weights (which fingerprint the programs through
// their WCETs), the partition timing table when the joint axis is active,
// and — for the full-design objective — the design budget and the plant
// dynamics and constraints of every application. Search parameters (maxM,
// tolerance, starts) deliberately stay out: an outcome is a property of
// the point, so runs with different search settings share evaluations.
//
// scn must already have defaults applied, and res must carry the resolved
// taskset (Timings/Weights, plus PartTimings when partitioned).
func writeEvalSpace(w sigWriter, scn Scenario, res *Result) {
	w.str(evalSchema)
	w.str(scn.Objective.String())
	w.flag(scn.Partitioned)

	p := scn.Platform
	w.f64(p.ClockHz)
	w.num(int64(p.Cache.Lines))
	w.num(int64(p.Cache.LineSize))
	w.num(int64(p.Cache.Ways))
	w.num(int64(p.Cache.Policy))
	w.num(int64(p.Cache.HitCycles))
	w.num(int64(p.Cache.MissCycles))

	// Hierarchy and arrival axes are hashed only when active, behind
	// versioned markers: scenarios that don't use them keep the exact byte
	// stream (and hence namespaces) they had before the axes existed, so
	// legacy stores stay valid without a schema bump.
	if p.Hier.Enabled() {
		w.str("hier/v1")
		w.num(int64(p.Hier.L2.Lines))
		w.num(int64(p.Hier.L2.LineSize))
		w.num(int64(p.Hier.L2.Ways))
		w.num(int64(p.Hier.L2.Policy))
		w.num(int64(p.Hier.L2.HitCycles))
		w.num(int64(p.Hier.L2.MissCycles))
		w.flag(p.Hier.Exclusive)
	}
	if scn.Arrival.Sporadic() {
		w.str("arr/v1")
		w.f64(scn.Arrival.Jitter)
		w.num(scn.Arrival.Seed)
		w.num(int64(scn.Arrival.Cycles))
	}

	w.timings(res.Timings)
	w.num(int64(len(res.Weights)))
	for _, wt := range res.Weights {
		w.f64(wt)
	}
	if scn.Partitioned {
		w.num(int64(len(res.PartTimings.ByWays)))
		for _, col := range res.PartTimings.ByWays {
			w.timings(col)
		}
	}

	if scn.Objective == ObjectiveDesign {
		b := scn.Budget
		w.num(int64(b.Swarm.Particles))
		w.num(int64(b.Swarm.Iterations))
		w.f64(b.Swarm.InertiaStart)
		w.f64(b.Swarm.InertiaEnd)
		w.f64(b.Swarm.Cognitive)
		w.f64(b.Swarm.Social)
		w.num(int64(b.Swarm.StallLimit))
		w.f64(b.Sim.Horizon)
		w.f64(b.Sim.DtMax)
		// Formerly DesignOptions' gain scale, warm-start radii and per-mode
		// feedforward flag, which no budget ever set: writing their unset
		// values (0, an empty list, false) keeps the byte stream, and with
		// it every stored design namespace, unchanged
		// (TestDesignNamespacePinned).
		w.f64(0)
		w.num(0)
		w.flag(false)

		// The framework's applications: plant dynamics and evaluation
		// constraints per app, resolved whether the scenario named them
		// explicitly or drew them from the case-study pool.
		var list []appFingerprint
		if res.Framework != nil {
			for _, a := range res.Framework.Apps {
				list = append(list, appFingerprint{
					Name: a.Name, Plant: a.Plant,
					SettleDeadline: a.SettleDeadline, Ref: a.Ref, UMax: a.UMax,
				})
			}
		}
		w.num(int64(len(list)))
		for _, a := range list {
			w.str(a.Name)
			w.f64(a.SettleDeadline)
			w.f64(a.Ref)
			w.f64(a.UMax)
			if a.Plant != nil {
				w.matrix(a.Plant.A)
				w.matrix(a.Plant.B)
				w.matrix(a.Plant.C)
			} else {
				w.num(-1)
			}
		}
	}
}

type appFingerprint struct {
	Name                      string
	Plant                     *lti.System
	SettleDeadline, Ref, UMax float64
}

// EvalNamespace returns the persistent-store namespace of the scenario's
// evaluation space: outcomes stored under it are valid for any run whose
// taskset, platform, objective, and (for design) budget and plants hash
// identically, regardless of search settings or scenario naming.
func evalNamespace(scn Scenario, res *Result) string {
	h := sha256.New()
	writeEvalSpace(sigWriter{h}, scn, res)
	return "o/" + hex.EncodeToString(h.Sum(nil))[:32] + "/"
}

// resultKey returns the persistent-store key of the scenario's checkpoint
// record. It extends the evaluation-space hash with every search parameter
// that shapes the result: the burst cap, the acceptance tolerance, the
// resolved start points, and whether the exhaustive baseline ran. The
// scenario's Name and Seed are deliberately excluded — they are
// presentation, and two scenarios drawing bit-identical tasksets from
// different seeds genuinely share their result.
func resultKey(scn Scenario, res *Result, starts []sched.Schedule) string {
	h := sha256.New()
	w := sigWriter{h}
	w.str(resultSchema)
	writeEvalSpace(w, scn, res)
	w.num(int64(scn.MaxM))
	w.f64(scn.Tolerance)
	w.flag(scn.Exhaustive)
	w.num(int64(scn.Cores))
	w.flag(scn.BranchBound)
	w.num(int64(len(starts)))
	for _, s := range starts {
		w.ints(s)
	}
	if scn.Cores > 1 {
		w.str(placementSchema)
	}
	return "r/" + hex.EncodeToString(h.Sum(nil))[:32]
}
