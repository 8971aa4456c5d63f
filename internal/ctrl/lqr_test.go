package ctrl

import (
	"math"
	"testing"

	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/sched"
)

func TestPeriodicLQRStabilizes(t *testing.T) {
	plant := servo()
	for _, s := range []sched.Schedule{{1, 1, 1}, {2, 2, 2}, {3, 2, 3}} {
		modes, _ := modesFor(t, plant, s, 0)
		ks, err := PeriodicLQR(modes, 1, 1e-3)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(ks) != len(modes) {
			t.Fatalf("%v: %d gains for %d modes", s, len(ks), len(modes))
		}
		fs, err := HolisticFeedforward(modes, ks)
		if err != nil {
			t.Fatalf("%v feedforward: %v", s, err)
		}
		g := Gains{K: ks, F: fs}
		stable, rho, err := StableMonodromy(modes, g)
		if err != nil {
			t.Fatal(err)
		}
		if !stable {
			t.Errorf("%v: LQR gains unstable (rho=%g)", s, rho)
		}
	}
}

func TestPeriodicLQRWeightMonotonicity(t *testing.T) {
	// Heavier input weight must give weaker gains (smaller norm).
	plant := servo()
	modes, _ := modesFor(t, plant, sched.Schedule{2, 2, 2}, 0)
	kLight, err := PeriodicLQR(modes, 1, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	kHeavy, err := PeriodicLQR(modes, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	nl, nh := frobenius(kLight[0]), frobenius(kHeavy[0])
	if nh >= nl {
		t.Errorf("heavier input weight should shrink gains: %g vs %g", nh, nl)
	}
}

func TestPeriodicLQRRejectsBadInput(t *testing.T) {
	if _, err := PeriodicLQR(nil, 1, 1); err == nil {
		t.Error("no modes accepted")
	}
	plant := servo()
	modes, _ := modesFor(t, plant, sched.Schedule{1, 1, 1}, 0)
	if _, err := PeriodicLQR(modes, 0, 1); err == nil {
		t.Error("zero state weight accepted")
	}
	if _, err := PeriodicLQR(modes, 1, -1); err == nil {
		t.Error("negative input weight accepted")
	}
}

func TestLQRSeedGainsShape(t *testing.T) {
	plant := servo()
	modes, _ := modesFor(t, plant, sched.Schedule{3, 2, 3}, 0)
	seeds, scale := LQRSeedGains(modes)
	if len(seeds) == 0 {
		t.Fatal("no LQR seeds")
	}
	for i, sd := range seeds {
		if len(sd) != len(modes)*plant.Order() {
			t.Errorf("seed %d has %d entries", i, len(sd))
		}
	}
	for s, v := range scale {
		if v <= 0 {
			t.Errorf("scale[%d] = %g", s, v)
		}
	}
}

func TestHolisticFeedforwardOrbitOnReference(t *testing.T) {
	// For a NON-integrating plant (distinct per-mode DC fixed points) the
	// holistic feedforward must make the closed-loop periodic orbit pass
	// through y = r at every sampling instant, while the per-mode Eq. (17)
	// feedforward generally does not.
	plant := lti.MustSystem(
		mat.NewFromRows([][]float64{{-30, 10}, {0, -200}}),
		mat.ColVec(0, 400),
		mat.RowVec(1, 0),
	)
	der, err := sched.Derive(paperTimings(), sched.Schedule{3, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	modes, err := ModesFromSchedule(plant, der[0])
	if err != nil {
		t.Fatal(err)
	}
	ks, err := PeriodicLQR(modes, 1, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := HolisticFeedforward(modes, ks)
	if err != nil {
		t.Fatal(err)
	}
	g := Gains{K: ks, F: fs}
	r := 2.5
	tr, err := Simulate(plant, modes, g, r, SimOptions{Horizon: 2.0, InitialGap: der[0].Gap})
	if err != nil {
		t.Fatal(err)
	}
	// After the transient dies, every sampled output must equal r.
	n := len(tr.Outputs)
	for i := n - 2*len(modes); i < n; i++ {
		if math.Abs(tr.Outputs[i]-r) > 1e-6*math.Abs(r) {
			t.Errorf("sampled output %d = %g, want %g", i, tr.Outputs[i], r)
		}
	}
}

func TestPerModeFeedforwardEquivalence(t *testing.T) {
	// Because every mode is an exact ZOH discretization of the same
	// continuous plant, the constant-input DC fixed point is shared by all
	// modes; the per-mode Eq. (17) feedforward therefore coincides with
	// the joint periodic-orbit solution. This test documents and pins that
	// equivalence (the joint solver exists for numerical robustness and
	// for non-uniform mode families, e.g. multi-plant extensions).
	plant := lti.MustSystem(
		mat.NewFromRows([][]float64{{-30, 10}, {0, -200}}),
		mat.ColVec(0, 400),
		mat.RowVec(1, 0),
	)
	der, err := sched.Derive(paperTimings(), sched.Schedule{3, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	modes, err := ModesFromSchedule(plant, der[0])
	if err != nil {
		t.Fatal(err)
	}
	ks, err := PeriodicLQR(modes, 1, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	g := Gains{K: ks, F: make([]float64, len(modes))}
	for j := range modes {
		f, err := Feedforward(modes[j].D.Ad, modes[j].D.BTotal(), modes[j].D.C, ks[j])
		if err != nil {
			t.Fatal(err)
		}
		g.F[j] = f
	}
	joint, err := HolisticFeedforward(modes, ks)
	if err != nil {
		t.Fatal(err)
	}
	for j := range modes {
		if math.Abs(g.F[j]-joint[j]) > 1e-6*(1+math.Abs(joint[j])) {
			t.Errorf("mode %d: per-mode F=%g, joint F=%g", j, g.F[j], joint[j])
		}
	}
}

// frobenius returns the Frobenius norm of m.
func frobenius(m *mat.Matrix) float64 {
	s := 0.0
	for i := 0; i < m.Rows(); i++ {
		for _, v := range m.Row(i) {
			s += v * v
		}
	}
	return math.Sqrt(s)
}
