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

// Timing runs the WCET analysis of the application's program on the
// platform and returns its schedule-level timing parameters.
func (a App) Timing(plat wcet.Platform) (sched.AppTiming, *wcet.Result, error) {
	res, err := wcet.Analyze(a.Program, plat)
	if err != nil {
		return sched.AppTiming{}, nil, err
	}
	return sched.AppTiming{
		Name:     a.Name,
		ColdWCET: plat.CyclesToSeconds(res.ColdCycles),
		WarmWCET: plat.CyclesToSeconds(res.WarmCycles),
		MaxIdle:  a.MaxIdle,
	}, res, nil
}

// Timings analyzes all apps at once.
func Timings(apps []App, plat wcet.Platform) ([]sched.AppTiming, []*wcet.Result, error) {
	ts := make([]sched.AppTiming, len(apps))
	rs := make([]*wcet.Result, len(apps))
	for i, a := range apps {
		t, r, err := a.Timing(plat)
		if err != nil {
			return nil, nil, err
		}
		ts[i] = t
		rs[i] = r
	}
	return ts, rs, nil
}

// WayTimings analyzes every app under each possible dedicated-way count,
// returning the ByWays table of the joint co-design (entry [w-1][i] is app
// i's steady-state timing owning w ways; see wcet.SteadyWayTimings for the
// model); callers pair it with the shared timings of Timings.
func WayTimings(apps []App, plat wcet.Platform) ([][]sched.AppTiming, error) {
	byWays := make([][]sched.AppTiming, plat.Cache.Ways)
	for w := range byWays {
		byWays[w] = make([]sched.AppTiming, len(apps))
	}
	for i, a := range apps {
		col, err := wcet.SteadyWayTimings(a.Program, plat, a.Name, a.MaxIdle)
		if err != nil {
			return nil, err
		}
		for w := range col {
			byWays[w][i] = col[w]
		}
	}
	return byWays, nil
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
