// Command ccsched runs the cache-aware control co-design case study of the
// paper end to end: WCET analysis (Table I), schedule evaluation and
// comparison (Table III), and the exhaustive schedule search with its full
// landscape (Section V). The hybrid search runs in cmd/schedsearch, the
// multi-core placement co-design in cmd/partsearch -cores.
//
// Usage:
//
//	ccsched [-mode compare|exhaustive|eval|wcet|timeline]
//	        [-schedule m1,m2,m3] [-budget tiny|quick|paper|deep] [-maxm N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
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
	fs := flag.NewFlagSet("ccsched", flag.ContinueOnError)
	fs.SetOutput(stdout)
	mode := fs.String("mode", "compare", "compare | exhaustive | eval | wcet | timeline")
	scheduleFlag := fs.String("schedule", "3,2,3", "schedule m1,m2,... for -mode eval/timeline")
	budget := fs.String("budget", "quick", "design budget: tiny | quick | paper | deep")
	maxM := fs.Int("maxm", 12, "burst-length cap for exhaustive search")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if !exp.KnownBudget(*budget) {
		return fmt.Errorf("ccsched: unknown budget %q (want tiny | quick | paper | deep)", *budget)
	}

	plat := wcet.PaperPlatform()
	study := apps.CaseStudy()
	fw, err := core.New(study, plat, exp.Budget(*budget))
	if err != nil {
		return err
	}
	fw.ReportDtMax = 10e-6

	printTableI(stdout, fw)

	switch *mode {
	case "wcet":
		// Table I only (already printed).
	case "timeline":
		s, err := sched.ParseSchedule(*scheduleFlag, len(study))
		if err != nil {
			return err
		}
		txt, err := sched.FormatTimeline(fw.Timings, s)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, txt)
	case "eval":
		s, err := sched.ParseSchedule(*scheduleFlag, len(study))
		if err != nil {
			return err
		}
		ev, err := fw.EvaluateSchedule(s)
		if err != nil {
			return err
		}
		printEval(stdout, ev)
	case "compare":
		rr, err := fw.EvaluateSchedule(sched.RoundRobin(len(study)))
		if err != nil {
			return err
		}
		s, err := sched.ParseSchedule(*scheduleFlag, len(study))
		if err != nil {
			return err
		}
		opt, err := fw.EvaluateSchedule(s)
		if err != nil {
			return err
		}
		printComparison(stdout, rr, opt)
	case "exhaustive":
		res, err := search.Exhaustive(fw.EvalFunc(), fw.Timings, *maxM)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nExhaustive search: %d schedules evaluated, %d feasible\n", res.Evaluated, res.Feasible)
		fmt.Fprintf(stdout, "  best: %v with P_all = %.4f\n", res.Best, res.BestValue)
		fmt.Fprintln(stdout, "  full landscape (schedule, P_all, feasible, per-app settling ms):")
		// The search evaluated every point of this box through the
		// framework, so each lookup below is a memoized hit.
		box, err := sched.EnumerateFeasible(fw.Timings, *maxM)
		if err != nil {
			return err
		}
		for _, s := range box {
			ev, err := fw.EvaluateSchedule(s)
			if err != nil {
				continue
			}
			fmt.Fprintf(stdout, "   %v  P=%8.4f feas=%-5v  ", s, ev.Pall, ev.Feasible)
			for _, ar := range ev.Apps {
				fmt.Fprintf(stdout, " %6.2f", ar.Design.SettlingTime*1e3)
			}
			fmt.Fprintln(stdout)
		}
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	return nil
}

func printTableI(w io.Writer, fw *core.Framework) {
	fmt.Fprintln(w, "Table I - WCET results with and without cache reuse:")
	fmt.Fprintf(w, "  %-28s", "Application")
	for _, a := range fw.Apps {
		fmt.Fprintf(w, "%12s", a.Name)
	}
	fmt.Fprintln(w)
	row := func(label string, f func(i int) float64) {
		fmt.Fprintf(w, "  %-28s", label)
		for i := range fw.Apps {
			fmt.Fprintf(w, "%9.2f us", f(i))
		}
		fmt.Fprintln(w)
	}
	plat := fw.Platform
	row("WCET w/o cache reuse", func(i int) float64 { return plat.CyclesToMicros(fw.WCETResults[i].ColdCycles) })
	row("Guaranteed WCET reduction", func(i int) float64 { return plat.CyclesToMicros(fw.WCETResults[i].ReductionCycles) })
	row("WCET w/ cache reuse", func(i int) float64 { return plat.CyclesToMicros(fw.WCETResults[i].WarmCycles) })
}

func printEval(w io.Writer, ev *core.ScheduleEval) {
	fmt.Fprintf(w, "\nSchedule %v: P_all = %.4f (feasible=%v)\n", ev.Schedule, ev.Pall, ev.Feasible)
	for _, ar := range ev.Apps {
		fmt.Fprintf(w, "  %-4s settling %7.2f ms  (deadline %s, P=%.4f, rho=%.4f, maxU=%.3g, settled=%v)\n",
			ar.Name, ar.Design.SettlingTime*1e3, fmtMs(ar.Timing), ar.Performance,
			ar.Design.SpectralRadius, ar.Design.MaxInput, ar.Design.Settled)
	}
}

func fmtMs(as sched.AppSchedule) string {
	return fmt.Sprintf("gap %.2fms hmax %.2fms", as.Gap*1e3, as.MaxPeriod()*1e3)
}

func printComparison(w io.Writer, rr, opt *core.ScheduleEval) {
	fmt.Fprintln(w, "\nTable III - control performance comparison:")
	fmt.Fprintf(w, "  %-34s", "Application")
	for _, ar := range rr.Apps {
		fmt.Fprintf(w, "%10s", ar.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  Settling time for %-16v", rr.Schedule)
	for _, ar := range rr.Apps {
		fmt.Fprintf(w, "%7.1f ms", ar.Design.SettlingTime*1e3)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  Settling time for %-16v", opt.Schedule)
	for _, ar := range opt.Apps {
		fmt.Fprintf(w, "%7.1f ms", ar.Design.SettlingTime*1e3)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-34s", "Control performance improvement")
	for i := range rr.Apps {
		s0 := rr.Apps[i].Design.SettlingTime
		s1 := opt.Apps[i].Design.SettlingTime
		fmt.Fprintf(w, "%8.0f %%", 100*(s0-s1)/s0)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "\n  P_all %v = %.4f,  P_all %v = %.4f\n", rr.Schedule, rr.Pall, opt.Schedule, opt.Pall)
}
