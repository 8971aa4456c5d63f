package apps

import (
	"math"
	"testing"

	"repro/internal/lti"
	"repro/internal/wcet"
)

// TestTableIExact verifies the headline calibration: the WCET analysis of
// the three synthetic programs on the paper's platform reproduces Table I
// to the microsecond.
func TestTableIExact(t *testing.T) {
	plat := wcet.PaperPlatform()
	want := []struct {
		name      string
		coldUs    float64
		reduceUs  float64
		warmUs    float64
		coldCyc   int64
		reuseLine int
	}{
		{"C1", 907.55, 455.40, 452.15, 18151, 92},
		{"C2", 645.25, 470.25, 175.00, 12905, 95},
		{"C3", 749.15, 514.80, 234.35, 14983, 104},
	}
	for i, a := range CaseStudy() {
		res, err := wcet.Analyze(a.Program, plat)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		w := want[i]
		if res.ColdCycles != w.coldCyc {
			t.Errorf("%s cold = %d cycles (%.2f us), want %d (%.2f us)",
				a.Name, res.ColdCycles, plat.CyclesToMicros(res.ColdCycles), w.coldCyc, w.coldUs)
		}
		if got := plat.CyclesToMicros(res.ReductionCycles); math.Abs(got-w.reduceUs) > 1e-9 {
			t.Errorf("%s reduction = %.4f us, want %.2f us", a.Name, got, w.reduceUs)
		}
		if got := plat.CyclesToMicros(res.WarmCycles); math.Abs(got-w.warmUs) > 1e-9 {
			t.Errorf("%s warm = %.4f us, want %.2f us", a.Name, got, w.warmUs)
		}
		if res.ReusedLines != w.reuseLine {
			t.Errorf("%s reused lines = %d, want %d", a.Name, res.ReusedLines, w.reuseLine)
		}
		// The analytical guarantee must agree with concrete simulation on
		// these conflict-engineered programs.
		simCold, simWarm := wcet.Simulate(a.Program, plat)
		if simCold != res.ColdCycles {
			t.Errorf("%s: sim cold %d != bound %d", a.Name, simCold, res.ColdCycles)
		}
		if simWarm != res.WarmCycles {
			t.Errorf("%s: sim warm %d != bound %d", a.Name, simWarm, res.WarmCycles)
		}
	}
}

func TestProgramsValidate(t *testing.T) {
	for _, a := range CaseStudy() {
		if err := a.Program.Validate(lineSize); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestProgramFootprints(t *testing.T) {
	// C1 and C3 must be larger than the 2 KB cache (the paper's premise);
	// C2's cycle budget mathematically cannot exceed it (see DESIGN.md).
	byName := map[string]int{}
	for _, a := range CaseStudy() {
		byName[a.Name] = len(a.Program.Lines()) * lineSize
	}
	if byName["C1"] <= 2048 {
		t.Errorf("C1 footprint %d B should exceed the 2 KB cache", byName["C1"])
	}
	if byName["C3"] <= 2048 {
		t.Errorf("C3 footprint %d B should exceed the 2 KB cache", byName["C3"])
	}
	if byName["C2"] >= 2048 {
		t.Errorf("C2 footprint %d B expected below cache size by construction", byName["C2"])
	}
}

func TestTableIIParameters(t *testing.T) {
	apps := CaseStudy()
	weights := 0.0
	for _, a := range apps {
		weights += a.Weight
	}
	if math.Abs(weights-1) > 1e-12 {
		t.Errorf("weights sum to %g, want 1", weights)
	}
	wantDeadline := []float64{45e-3, 20e-3, 17.5e-3}
	wantIdle := []float64{3.4e-3, 3.9e-3, 3.5e-3}
	for i, a := range apps {
		if a.SettleDeadline != wantDeadline[i] {
			t.Errorf("%s deadline %g", a.Name, a.SettleDeadline)
		}
		if a.MaxIdle != wantIdle[i] {
			t.Errorf("%s idle bound %g", a.Name, a.MaxIdle)
		}
	}
}

func TestPlantsAreControllable(t *testing.T) {
	for _, a := range CaseStudy() {
		if !lti.IsControllable(a.Plant.A, a.Plant.B) {
			t.Errorf("%s plant not controllable", a.Name)
		}
		if a.Plant.Order() != 2 {
			t.Errorf("%s order %d", a.Name, a.Plant.Order())
		}
	}
}

func TestTimings(t *testing.T) {
	plat := wcet.PaperPlatform()
	ts, rs, err := Timings(CaseStudy(), plat)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 || len(rs) != 3 {
		t.Fatal("wrong lengths")
	}
	// Timing must carry Table I cold/warm WCETs in seconds.
	if math.Abs(ts[0].ColdWCET-907.55e-6) > 1e-12 {
		t.Errorf("C1 cold timing %g", ts[0].ColdWCET)
	}
	if math.Abs(ts[1].WarmWCET-175e-6) > 1e-12 {
		t.Errorf("C2 warm timing %g", ts[1].WarmWCET)
	}
	if ts[2].MaxIdle != 3.5e-3 {
		t.Errorf("C3 idle bound %g", ts[2].MaxIdle)
	}
}

func TestConstraintsAccessor(t *testing.T) {
	a := CaseStudy()[0]
	c := a.Constraints()
	if c.Ref != a.Ref || c.UMax != a.UMax || c.SettleDeadline != a.SettleDeadline {
		t.Error("constraints accessor mismatch")
	}
}
