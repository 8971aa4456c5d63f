package ctrl

import (
	"repro/internal/lti"
	"repro/internal/sched"
)

// CheckDesignBounds runs checkDesignBound on n random candidates of the
// design problem DesignHolistic compiles for (plant, as, cons) under
// default options. It is exported for the external tests, which can import
// the case-study applications (internal/apps imports this package).
func CheckDesignBounds(plant *lti.System, as sched.AppSchedule, cons Constraints, seed int64, n int) (BoundCoverage, error) {
	cons = cons.withDefaults()
	opt := DesignOptions{}.withDefaults(cons)
	opt.Sim.InitialGap = as.Gap
	modes, err := ModesFromSchedule(plant, as)
	if err != nil {
		return BoundCoverage{}, err
	}
	plan, err := CompileSimPlan(plant, modes, opt.Sim)
	if err != nil {
		return BoundCoverage{}, err
	}
	return checkDesignBounds(newDesignEval(plan, modes, cons), seed, n)
}
