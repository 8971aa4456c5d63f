// Custom plant: bring your own control application to the co-design flow.
// Defines a new plant (an inverted-pendulum-like unstable second-order
// system), a synthetic control program for it, and optimizes the schedule
// of this custom app alongside two case-study apps.
//
// Run with: go run ./examples/customplant
// (Pass -budget tiny for a fast smoke run, or paper for the full budget;
// quick is the default. -maxm bounds the exhaustive search box.)
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/program"
	"repro/internal/search"
	"repro/internal/wcet"
)

func main() {
	budgetName := flag.String("budget", "quick", "design budget: tiny | quick | paper")
	maxM := flag.Int("maxm", 6, "burst-length cap of the exhaustive search")
	flag.Parse()

	// A marginally unstable positioning stage: x1 = position, x2 = rate.
	plant := lti.MustSystem(
		mat.NewFromRows([][]float64{
			{0, 1},
			{40, -4}, // unstable pole pair around +/-6.4 rad/s
		}),
		mat.ColVec(0, 150),
		mat.RowVec(1, 0),
	)

	// A control program for the new app: 100 lines with a 30-line loop,
	// placed in a fresh flash region (cache sets 0..99).
	prog := &program.Program{
		Name: "custom-stage",
		Root: program.Seq{
			program.ContiguousLines(0x00050000, 40, 6, 16),
			program.Loop{Body: program.ContiguousLines(0x00050000+40*16, 30, 6, 16), Count: 6},
			program.ContiguousLines(0x00050000+70*16, 30, 6, 16),
		},
	}

	custom := apps.App{
		Name:           "STAGE",
		Plant:          plant,
		Program:        prog,
		Weight:         0.4,
		SettleDeadline: 30e-3,
		MaxIdle:        4e-3,
		Ref:            0.1,
		UMax:           20,
	}

	study := apps.CaseStudy()
	mix := []apps.App{custom, study[1], study[2]}
	// Re-weight so the weights sum to one.
	mix[1].Weight = 0.3
	mix[2].Weight = 0.3

	fw, err := core.New(mix, wcet.PaperPlatform(), exp.Budget(*budgetName))
	if err != nil {
		log.Fatal(err)
	}
	for i, tm := range fw.Timings {
		fmt.Printf("%-6s cold %.2f us, warm %.2f us\n", tm.Name,
			tm.ColdWCET*1e6, tm.WarmWCET*1e6)
		_ = i
	}

	res, err := search.Exhaustive(fw.EvalFunc(), fw.Timings, *maxM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nevaluated %d schedules (%d feasible)\n", res.Evaluated, res.Feasible)
	fmt.Printf("best schedule: %v with P_all = %.4f\n", res.Best, res.BestValue)

	ev, err := fw.EvaluateSchedule(res.Best)
	if err != nil {
		log.Fatal(err)
	}
	for _, ar := range ev.Apps {
		fmt.Printf("  %-6s settling %.2f ms, peak |u| %.2f\n",
			ar.Name, ar.Design.SettlingTime*1e3, ar.Design.MaxInput)
	}
}
