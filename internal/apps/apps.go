// Package apps defines the paper's automotive case study (Section V): three
// control applications sharing one microcontroller —
//
//	C1: position control of a servo motor (steer-by-wire),
//	C2: speed control of a DC motor (EV cruise control),
//	C3: control of the electronic wedge brake (brake-by-wire),
//
// each consisting of a continuous-time plant model, the design constraints
// of Table II, and a synthetic instruction-level control program whose
// cache/WCET analysis reproduces Table I exactly on the paper's platform
// (128 x 16-byte direct-mapped cache, 1-cycle hit, 100-cycle miss, 20 MHz).
//
// The plants in the paper come from references [16]-[18] whose parameters
// the paper does not reprint; the models here are physically plausible
// stand-ins with dynamics on the same time scale (documented in DESIGN.md).
package apps

import (
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/lti"
	"repro/internal/program"
	"repro/internal/sched"
	"repro/internal/wcet"
)

// App bundles everything the framework needs about one control application.
type App struct {
	Name           string
	Plant          *lti.System
	Program        *program.Program
	Weight         float64 // w_i of Eq. (2)
	SettleDeadline float64 // s_max_i (seconds), also the normalization s0_i
	MaxIdle        float64 // t_idle_i (seconds), constraint (4)
	Ref            float64 // reference step magnitude for the evaluation
	UMax           float64 // input saturation bound
}

// Constraints returns the ctrl-level constraint set of the application.
func (a App) Constraints() ctrl.Constraints {
	return ctrl.Constraints{
		Ref:            a.Ref,
		UMax:           a.UMax,
		SettleDeadline: a.SettleDeadline,
	}
}

// Table runs the WCET analysis of every app's program on the platform,
// once per app, and returns the joint co-design timing table with the
// analysis results. Shared[i] is app i's timing on the shared cache (cold
// and warm bounds); ByWays[w-1][i] its steady-state timing owning w
// dedicated ways (ColdWCET == WarmWCET == Result.WarmByWays[w-1]: a
// partition's contents survive the other apps' bursts). ByWays is nil on a
// platform with an L2, where way partitions do not apply.
func Table(list []App, plat wcet.Platform) (sched.PartitionTimings, []*wcet.Result, error) {
	pt := sched.PartitionTimings{Shared: make([]sched.AppTiming, len(list))}
	if !plat.Hier.Enabled() {
		pt.ByWays = make([][]sched.AppTiming, plat.Cache.Ways)
		for w := range pt.ByWays {
			pt.ByWays[w] = make([]sched.AppTiming, len(list))
		}
	}
	rs := make([]*wcet.Result, len(list))
	for i, a := range list {
		res, err := wcet.Analyze(a.Program, plat)
		if err != nil {
			return sched.PartitionTimings{}, nil, fmt.Errorf("apps: %s: %w", a.Name, err)
		}
		rs[i] = res
		pt.Shared[i] = sched.AppTiming{
			Name:     a.Name,
			ColdWCET: plat.CyclesToSeconds(res.ColdCycles),
			WarmWCET: plat.CyclesToSeconds(res.WarmCycles),
			MaxIdle:  a.MaxIdle,
		}
		for w, c := range res.WarmByWays {
			s := plat.CyclesToSeconds(c)
			pt.ByWays[w][i] = sched.AppTiming{Name: a.Name, ColdWCET: s, WarmWCET: s, MaxIdle: a.MaxIdle}
		}
	}
	return pt, rs, nil
}

// Timings analyzes all apps at once and returns Table's shared-cache row.
func Timings(list []App, plat wcet.Platform) ([]sched.AppTiming, []*wcet.Result, error) {
	pt, rs, err := Table(list, plat)
	return pt.Shared, rs, err
}

// CaseStudy returns the paper's three applications with Table II parameters:
// weights 0.4/0.4/0.2, settling deadlines 45/20/17.5 ms, and maximum idle
// times 3.4/3.9/3.5 ms.
func CaseStudy() []App {
	return []App{
		{
			Name:           "C1",
			Plant:          ServoPlant(),
			Program:        ServoProgram(),
			Weight:         0.4,
			SettleDeadline: 45e-3,
			MaxIdle:        3.4e-3,
			Ref:            0.2, // rad, matching Fig. 6's y range
			UMax:           48,  // V
		},
		{
			Name:           "C2",
			Plant:          DCMotorPlant(),
			Program:        DCMotorProgram(),
			Weight:         0.4,
			SettleDeadline: 20e-3,
			MaxIdle:        3.9e-3,
			Ref:            40, // rad/s speed step
			UMax:           24, // V
		},
		{
			Name:           "C3",
			Plant:          WedgeBrakePlant(),
			Program:        WedgeBrakeProgram(),
			Weight:         0.2,
			SettleDeadline: 17.5e-3,
			MaxIdle:        3.5e-3,
			Ref:            2000, // N clamp force, matching Fig. 6
			UMax:           30,
		},
	}
}
