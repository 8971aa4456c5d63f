package ctrl

import (
	"errors"
	"fmt"

	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/sched"
)

// Mode is one sampling interval of the schedule period: the delayed-input
// discretization of the plant over (h_j, tau_j).
type Mode struct {
	D *lti.DelayedDiscrete
}

// ModesFromSchedule discretizes the plant over every sampling interval of
// the application's derived schedule (Eq. 12 generalized to m_i modes).
func ModesFromSchedule(plant *lti.System, as sched.AppSchedule) ([]Mode, error) {
	if len(as.Periods) == 0 {
		return nil, errors.New("ctrl: schedule has no sampling intervals")
	}
	modes := make([]Mode, len(as.Periods))
	for j := range as.Periods {
		d, err := lti.DiscretizeDelayed(plant, as.Periods[j], as.Delays[j])
		if err != nil {
			return nil, fmt.Errorf("ctrl: mode %d (h=%g, tau=%g): %w", j, as.Periods[j], as.Delays[j], err)
		}
		modes[j] = Mode{D: d}
	}
	return modes, nil
}

// Gains holds the holistic controller of one application: a feedback row
// vector K_j and feedforward scalar F_j for every task j of the burst
// (Eq. 13/17).
type Gains struct {
	K []*mat.Matrix // each 1-by-l
	F []float64
}

// Validate checks that the gain set matches m modes of an l-state plant.
func (g Gains) Validate(m, l int) error {
	if len(g.K) != m || len(g.F) != m {
		return fmt.Errorf("ctrl: gains for %d/%d modes, want %d", len(g.K), len(g.F), m)
	}
	for j, k := range g.K {
		if k == nil || k.Rows() != 1 || k.Cols() != l {
			return fmt.Errorf("ctrl: K[%d] must be 1x%d", j, l)
		}
	}
	return nil
}

// HolisticFeedforward computes the feedforward gains F_1..F_m jointly so
// that the closed-loop *periodic orbit* satisfies y = r at every sampling
// instant. Per-mode feedforward (Eq. 17) regulates each mode's individual
// fixed point to r; under switching, those fixed points differ, leaving a
// permanent sampled-output ripple. Solving the periodic-orbit conditions
//
//	z_{j+1} = M_j z_j + ĝ_j F_j,   C x_j = 1   (j cyclic, unit reference)
//
// for the orbit states z_j and the gains F_j eliminates that ripple; by
// linearity the same gains track any reference magnitude. It returns an
// error when the system is singular (e.g. the closed loop cannot reach the
// reference). It solves on a fresh instance of the design search's
// workspace (designEval), so its gains are the ones the search scores.
func HolisticFeedforward(modes []Mode, k []*mat.Matrix) ([]float64, error) {
	if len(modes) == 0 {
		return nil, errors.New("ctrl: no modes")
	}
	e := newDesignEval(nil, modes, Constraints{})
	e.setClosedLoops(k)
	if err := e.holisticFeedforward(); err != nil {
		return nil, fmt.Errorf("ctrl: holistic feedforward: %w", err)
	}
	return e.g.F, nil
}
