// Command partsearch runs the joint cache-partition + schedule co-design
// on the automotive case study: the schedule burst counts (m1..mn) and the
// per-application dedicated way counts (w1..wn) are searched together
// (Sun et al.'s co-optimization, PAPERS.md), and the joint optimum is
// compared against the paper's schedule-only optimum.
//
// Without flags it prints Table IV — the comparison across the partition
// platform variants with the exact timing objective. With -platform it
// details one variant: the per-way steady-state WCET table, the hybrid
// walks, and the exhaustive baseline. With -objective design the expensive
// full-design pipeline evaluates every joint point (hybrid-only by
// default; add -exhaustive to brute-force the joint box).
//
// Usage:
//
//	partsearch [-platform paper-128x1|4way-256|4way-512|8way-512]
//	           [-objective timing|design] [-budget tiny|quick|paper|deep]
//	           [-maxm 6] [-tol 0.01] [-workers N] [-exhaustive]
//	           [-cores N] [-bb] [-store DIR] [-resume]
//
// With -cores N > 1 the placement axis joins the search: the applications
// are distributed over N cores (each with a private cache of the
// platform's geometry) and the placement, the per-core way splits, and
// the per-core schedules are co-optimized. Table mode then prints
// Table V — the multi-core optimum against the single-core joint optimum
// and the uniform-split baseline; detail mode reports the winning
// placement for one variant. -bb prunes the detail-mode searches of the
// timing objective with the branch-and-bound bound (the optimum is pinned
// identical either way; the table always uses it); the design objective
// has no bound, so -bb leaves it unchanged.
//
// With -store DIR joint-point evaluations and per-platform checkpoint
// records persist to a disk store (internal/store,
// shareable with cmd/sweep and cmd/served); -resume additionally loads
// completed platform variants from their checkpoints, so a warm store
// renders Table IV without re-searching the joint box. Table mode is
// bit-identical across cold, warm, and resumed runs; detail mode on a
// resumed checkpoint reports the same optima but notes that per-start
// hybrid walk traces are not persisted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/store"
)

var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("partsearch", flag.ContinueOnError)
	fs.SetOutput(stdout)
	platform := fs.String("platform", "", "detail one platform variant (default: table over all variants)")
	objective := fs.String("objective", "timing", "joint objective: timing | design")
	budget := fs.String("budget", "tiny", "design budget for -objective design: tiny | quick | paper | deep")
	maxM := fs.Int("maxm", 6, "burst-length cap")
	tol := fs.Float64("tol", 0.01, "hybrid acceptance tolerance")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel evaluators for the exhaustive pass (default: all cores)")
	exhaustive := fs.Bool("exhaustive", false, "brute-force the joint box under -objective design (always on for timing)")
	cores := fs.Int("cores", 1, "co-optimize app placement over this many cores (Table V with > 1)")
	bb := fs.Bool("bb", false, "prune detail-mode timing searches with branch-and-bound")
	storeDir := fs.String("store", "", "persist evaluations and checkpoints to this directory")
	resume := fs.Bool("resume", false, "load platform variants already checkpointed in -store")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if !exp.KnownBudget(*budget) {
		return fmt.Errorf("partsearch: unknown budget %q (want tiny | quick | paper | deep)", *budget)
	}

	rc := engine.RunConfig{Resume: *resume}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		rc.Store = st
	} else if *resume {
		return fmt.Errorf("-resume requires -store")
	}

	obj, err := engine.ParseObjective(*objective)
	if err != nil {
		return err
	}

	if *platform == "" && obj == engine.ObjectiveTiming {
		cfg := engine.Config{Workers: 1, Store: rc.Store, Resume: rc.Resume}
		if *cores > 1 {
			rows, err := exp.MulticoreCaseStudyWith(*maxM, *tol, *cores, cfg)
			if err != nil {
				return err
			}
			_, err = fmt.Fprint(stdout, exp.FormatMulticoreTable(rows))
			return err
		}
		rows, err := exp.PartitionCaseStudyWith(*maxM, *tol, cfg)
		if err != nil {
			return err
		}
		_, err = fmt.Fprint(stdout, exp.FormatPartitionTable(rows))
		return err
	}

	variants := exp.PartitionPlatforms()
	name := *platform
	if name == "" {
		name = variants[2].Name // 4way-512: the partitioning showcase
	}
	var chosen *exp.PartitionPlatform
	for i := range variants {
		if variants[i].Name == name {
			chosen = &variants[i]
			break
		}
	}
	if chosen == nil {
		return fmt.Errorf("unknown platform %q (want one of %s)", name, platformNames(variants))
	}

	scn := engine.Scenario{
		Name:        chosen.Name,
		Seed:        1,
		Apps:        apps.CaseStudy(),
		Platform:    chosen.Platform,
		Objective:   obj,
		Budget:      exp.Budget(*budget),
		Partitioned: true,
		Exhaustive:  obj == engine.ObjectiveTiming || *exhaustive,
		BranchBound: *bb,
		Cores:       *cores,
		MaxM:        *maxM,
		Tolerance:   *tol,
		Workers:     *workers,
	}
	res, err := engine.RunWith(scn, rc)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "platform %s: %d sets x %d ways (%d lines), objective %s\n",
		chosen.Name, chosen.Platform.Cache.Sets(), chosen.Platform.Cache.Ways,
		chosen.Platform.Cache.Lines, obj)
	fmt.Fprintln(stdout, "\nsteady-state WCET by dedicated ways (us):")
	pt := res.PartTimings
	fmt.Fprintf(stdout, "  %-6s %9s %9s", "app", "cold", "shared")
	for w := 1; w <= pt.TotalWays(); w++ {
		fmt.Fprintf(stdout, " %8dw", w)
	}
	fmt.Fprintln(stdout)
	for i, tm := range pt.Shared {
		fmt.Fprintf(stdout, "  %-6s %9.2f %9.2f", tm.Name, tm.ColdWCET*1e6, tm.WarmWCET*1e6)
		for w := 1; w <= pt.TotalWays(); w++ {
			fmt.Fprintf(stdout, " %9.2f", pt.ByWays[w-1][i].WarmWCET*1e6)
		}
		fmt.Fprintln(stdout)
	}

	if res.JointHybrid != nil {
		fmt.Fprintln(stdout, "\njoint hybrid search:")
		for _, r := range res.JointHybrid.Runs {
			fmt.Fprintf(stdout, "  start %v -> best %v (P_all=%.4f) in %d evaluations\n",
				r.Start, r.Best, r.BestValue, r.Evaluations)
		}
	} else {
		fmt.Fprintln(stdout, "\njoint hybrid search: resumed from checkpoint (walk traces are not persisted)")
	}
	fmt.Fprintf(stdout, "  overall best: %v (P_all=%.4f)\n", res.BestJoint, res.BestValue)

	if ex := res.JointExhaustive; ex != nil {
		fmt.Fprintf(stdout, "\nexhaustive joint baseline: %d points evaluated (%d feasible)\n",
			ex.Evaluated, ex.Feasible)
		fmt.Fprintf(stdout, "  schedule-only optimum: %v (P_all=%.4f)\n", ex.BestShared, ex.BestSharedValue)
		fmt.Fprintf(stdout, "  joint optimum:         %v (P_all=%.4f)\n", ex.Best, ex.BestValue)
		if ex.BestSharedValue > 0 {
			fmt.Fprintf(stdout, "  partitioning gain:     %+.1f%%\n",
				100*(ex.BestValue-ex.BestSharedValue)/ex.BestSharedValue)
		}
	}
	if mc := res.Multicore; mc != nil && mc.FoundBest {
		fmt.Fprintf(stdout, "\nmulti-core co-design on %d cores: %d core points (%d placements, %d + %d pruned)\n",
			mc.Cores, mc.Evaluated, mc.Assignments, mc.AssignmentsPruned, mc.SubtreesPruned)
		fmt.Fprintf(stdout, "  placement %v: P_all = %.4f\n", mc.Assignment, mc.BestValue)
		for c, sol := range mc.PerCore {
			fmt.Fprintf(stdout, "  core %d: apps %v  point %v  P = %.4f\n", c, sol.Apps, sol.Point, sol.Value)
		}
		if uni := res.MulticoreUniform; uni != nil && uni.FoundBest {
			fmt.Fprintf(stdout, "  uniform even split: P_all = %.4f (co-design %+.1f%%)\n",
				uni.BestValue, 100*(mc.BestValue-uni.BestValue)/uni.BestValue)
		}
		if ex := res.JointExhaustive; ex != nil && ex.FoundBest {
			fmt.Fprintf(stdout, "  single-core joint optimum: %v (P_all=%.4f, multi-core %+.1f%%)\n",
				ex.Best, ex.BestValue, 100*(mc.BestValue-ex.BestValue)/ex.BestValue)
		}
	}

	st := res.CacheStats
	fmt.Fprintf(stdout, "\n%d distinct evaluations for %d lookups (cache hit rate %.0f%%)\n",
		res.Evaluated, st.Lookups(), 100*st.HitRate())
	return nil
}

func platformNames(variants []exp.PartitionPlatform) string {
	s := ""
	for i, v := range variants {
		if i > 0 {
			s += ", "
		}
		s += v.Name
	}
	return s
}
