// Command schedsearch compares the paper's hybrid schedule search against
// exhaustive enumeration on the automotive case study, reporting evaluation
// counts, search paths, and the optimal schedule (Section IV/V).
//
// With -shared-cache both searches run through one sharded memoization
// cache (internal/engine/evalcache): hybrid walks execute sequentially with
// deterministic evaluation attribution, and the exhaustive baseline reuses
// every schedule the walks already evaluated, over -workers parallel
// evaluators.
//
// Usage:
//
//	schedsearch [-starts "4,2,2;1,2,1"] [-tol 0.01] [-maxm 10]
//	            [-budget tiny|quick|paper|deep] [-shared-cache] [-workers N]
//	            [-skip-exhaustive] [-cpuprofile search.cpu] [-memprofile search.mem]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/exp"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/search"
)

// errUsage signals a flag-parse failure the FlagSet already reported on
// stdout; main must not print it a second time.
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
	fs := flag.NewFlagSet("schedsearch", flag.ContinueOnError)
	fs.SetOutput(stdout)
	startsFlag := fs.String("starts", "4,2,2;1,2,1", "semicolon-separated start schedules")
	tol := fs.Float64("tol", 0.01, "hybrid acceptance tolerance (simulated-annealing feature)")
	maxM := fs.Int("maxm", 10, "burst-length cap")
	budget := fs.String("budget", "quick", "design budget: tiny | quick | paper | deep")
	sharedCache := fs.Bool("shared-cache", false, "share one evaluation cache across starts and searches")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel evaluators for the exhaustive pass with -shared-cache (default: all cores)")
	skipExhaustive := fs.Bool("skip-exhaustive", false, "run only the hybrid search")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if !exp.KnownBudget(*budget) {
		return fmt.Errorf("schedsearch: unknown budget %q (want tiny | quick | paper | deep)", *budget)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProf()

	fw, err := exp.DefaultFramework(exp.Budget(*budget))
	if err != nil {
		return err
	}

	starts, err := parseStarts(*startsFlag, len(fw.Apps))
	if err != nil {
		return err
	}

	eval := fw.EvalFunc()
	opt := search.Options{Tolerance: *tol, MaxM: *maxM}
	var cache *search.Cache
	if *sharedCache {
		cache = search.NewCache(eval)
		opt.Cache = cache
	}
	hy, err := search.Hybrid(eval, fw.Timings, starts, opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Hybrid search:")
	for _, r := range hy.Runs {
		fmt.Fprintf(stdout, "  start %v -> best %v (P_all=%.4f) in %d evaluations\n",
			r.Start, r.Best, r.BestValue, r.Evaluations)
		fmt.Fprintf(stdout, "    path: %v\n", r.Path)
	}
	fmt.Fprintf(stdout, "  overall best: %v (P_all=%.4f)\n", hy.Best, hy.BestValue)
	fmt.Fprintf(stdout, "  evaluations executed: %d (cache hit rate %.0f%%)\n",
		hy.TotalEvaluations, 100*hy.CacheStats.HitRate())

	if *skipExhaustive {
		return stopProf()
	}
	var ex *search.ExhaustiveResult
	if cache != nil {
		ex, err = search.ExhaustiveCached(cache, fw.Timings, *maxM, *workers)
	} else {
		ex, err = search.Exhaustive(eval, fw.Timings, *maxM)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nExhaustive baseline: %d schedules evaluated (%d feasible)\n", ex.Evaluated, ex.Feasible)
	fmt.Fprintf(stdout, "  global optimum: %v (P_all=%.4f)\n", ex.Best, ex.BestValue)
	for _, r := range hy.Runs {
		fmt.Fprintf(stdout, "  hybrid from %v used %.1f%% of the exhaustive evaluations\n",
			r.Start, 100*float64(r.Evaluations)/float64(ex.Evaluated))
	}
	if cache != nil {
		st := cache.Stats()
		fmt.Fprintf(stdout, "  shared cache: %d distinct evaluations for %d lookups (hit rate %.0f%%)\n",
			cache.Len(), st.Lookups(), 100*st.HitRate())
	}
	return stopProf()
}

// parseStarts parses the semicolon-separated start list "4,2,2;1,2,1".
func parseStarts(s string, n int) ([]sched.Schedule, error) {
	var out []sched.Schedule
	for _, part := range strings.Split(s, ";") {
		sc, err := sched.ParseSchedule(part, n)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}
