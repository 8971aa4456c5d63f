// Automotive case study: the paper's full two-stage flow on the three
// automotive applications (servo position, DC-motor speed, wedge brake).
// Regenerates Tables I-III and the search-efficiency experiment.
//
// Run with: go run ./examples/automotive
// (Pass -budget paper for the full experiment budget, or tiny for a fast
// smoke run; quick is the default.)
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
)

func main() {
	budget := flag.String("budget", "quick", "design budget: tiny | quick | paper")
	flag.Parse()

	opt := exp.Budget(*budget)

	// Table I: cache-aware WCET analysis.
	rows, err := exp.TableI(apps.CaseStudy(), wcet.PaperPlatform())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(exp.FormatTableI(rows))
	fmt.Println()

	// Table II: application parameters.
	fmt.Print(exp.FormatTableII(exp.TableII(apps.CaseStudy())))
	fmt.Println()

	fw, err := exp.DefaultFramework(opt)
	if err != nil {
		log.Fatal(err)
	}

	// Stage 2: hybrid search from the paper's two starting schedules.
	hy, err := search.Hybrid(fw.EvalFunc(), fw.Timings, exp.PaperStarts, search.Options{Tolerance: 0.01, MaxM: 10})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range hy.Runs {
		fmt.Printf("hybrid search from %v: best %v (P_all=%.4f) in %d schedule evaluations\n",
			r.Start, r.Best, r.BestValue, r.Evaluations)
	}

	// Table III: round robin vs the discovered cache-aware schedule.
	best := hy.Best
	if !hy.FoundBest {
		best = sched.Schedule{2, 2, 2}
	}
	t3, err := exp.TableIII(fw, exp.PaperRoundRobin, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(exp.FormatTableIII(t3))
}
