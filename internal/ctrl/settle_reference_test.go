package ctrl

import (
	"testing"

	"repro/internal/lti"
)

// The settling-time definition of the reference evaluation in
// design_reference_test.go, pinned on hand-made trajectories.

// samples builds a trajectory from (t, y) pairs.
func samples(ty ...float64) []lti.Sample {
	out := make([]lti.Sample, len(ty)/2)
	for i := range out {
		out[i] = lti.Sample{T: ty[2*i], Y: ty[2*i+1]}
	}
	return out
}

func TestSettlingTime(t *testing.T) {
	traj := samples(0, 0, 1, 0.5, 2, 0.9, 3, 1.05, 4, 0.99, 5, 1.01, 6, 1.0)
	st, ok := settlingTime(traj, 1, 0.02)
	if !ok || st != 4 {
		t.Errorf("settling time = %g, %v; want 4, true", st, ok)
	}
}

func TestSettlingTimeNever(t *testing.T) {
	traj := samples(0, 0, 1, 2, 2, 0, 3, 2)
	st, ok := settlingTime(traj, 1, 0.02)
	if ok {
		t.Errorf("oscillating trajectory settled at %g", st)
	}
	if st != 3 {
		t.Errorf("unsettled time should be horizon end, got %g", st)
	}
}

func TestSettlingTimeLeavesBand(t *testing.T) {
	// Enters the band then leaves: settling counts from the final entry.
	traj := samples(0, 1.0, 1, 1.0, 2, 1.5, 3, 1.0, 4, 1.0)
	st, ok := settlingTime(traj, 1, 0.02)
	if !ok || st != 3 {
		t.Errorf("settling after excursion = %g, %v; want 3, true", st, ok)
	}
}

func TestSettlingTimeEmpty(t *testing.T) {
	if _, ok := settlingTime(nil, 1, 0.02); ok {
		t.Error("empty trajectory must not settle")
	}
}

func TestSettlingImmediate(t *testing.T) {
	traj := samples(0, 1.0, 1, 1.0)
	st, ok := settlingTime(traj, 1, 0.02)
	if !ok || st != 0 {
		t.Errorf("immediate settle = %g, %v", st, ok)
	}
}

func TestAnalyzeStep(t *testing.T) {
	traj := samples(0, 0, 1, 1.3, 2, 1.0, 3, 1.0)
	info := analyzeStep(traj, []float64{0.5, -2, 0.1}, 1, 0.02)
	if info.PeakOutput != 1.3 {
		t.Errorf("peak output = %g", info.PeakOutput)
	}
	if info.PeakInput != 2 {
		t.Errorf("peak input = %g", info.PeakInput)
	}
	if !info.Settled || info.SettlingTime != 2 {
		t.Errorf("settling = %g, %v", info.SettlingTime, info.Settled)
	}
}

func TestMaxAbsInput(t *testing.T) {
	if maxAbsInput(nil) != 0 {
		t.Error("empty input max should be 0")
	}
	if maxAbsInput([]float64{1, -3, 2}) != 3 {
		t.Error("wrong max abs")
	}
}
