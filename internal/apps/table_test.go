package apps_test

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cachesim"
	"repro/internal/exp"
	"repro/internal/wcet"
)

// TestTableRows pins apps.Table, the one builder of a joint timing table:
// on every partition platform its K per-way rows are steady-state timings
// (ColdWCET == WarmWCET) read from the same analysis as the shared row,
// so owning all K ways reproduces the shared warm bound; on an L2
// platform there are no per-way rows.
func TestTableRows(t *testing.T) {
	study := apps.CaseStudy()
	for _, v := range exp.PartitionPlatforms() {
		pt, rs, err := apps.Table(study, v.Platform)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if err := pt.Validate(); err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		k := v.Platform.Cache.Ways
		if pt.TotalWays() != k || len(rs) != len(study) {
			t.Fatalf("%s: %d per-way rows and %d results, want %d and %d",
				v.Name, pt.TotalWays(), len(rs), k, len(study))
		}
		for i, a := range study {
			shared := pt.Shared[i]
			if shared.Name != a.Name || shared.MaxIdle != a.MaxIdle ||
				shared.ColdWCET != v.Platform.CyclesToSeconds(rs[i].ColdCycles) ||
				shared.WarmWCET != v.Platform.CyclesToSeconds(rs[i].WarmCycles) {
				t.Errorf("%s: shared row %+v does not match %s's analysis %+v", v.Name, shared, a.Name, rs[i])
			}
			for w, row := range pt.ByWays {
				got := row[i]
				if got.ColdWCET != got.WarmWCET || got.Name != a.Name || got.MaxIdle != a.MaxIdle {
					t.Errorf("%s, %d ways: %+v is not %s's steady-state row", v.Name, w+1, got, a.Name)
				}
				if got.WarmWCET != v.Platform.CyclesToSeconds(rs[i].WarmByWays[w]) {
					t.Errorf("%s, %d ways: warm %g s, analysis %d cycles", v.Name, w+1, got.WarmWCET, rs[i].WarmByWays[w])
				}
			}
			if full := pt.ByWays[k-1][i]; full.WarmWCET != shared.WarmWCET {
				t.Errorf("%s: %s owning all %d ways: warm %g s, shared warm %g s",
					v.Name, a.Name, k, full.WarmWCET, shared.WarmWCET)
			}
		}
	}
	for _, v := range exp.ScenarioPlatforms() {
		if !v.Platform.Hier.Enabled() {
			continue
		}
		pt, rs, err := apps.Table(study, v.Platform)
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if pt.ByWays != nil || len(pt.Shared) != len(study) {
			t.Errorf("%s: %d per-way rows and %d shared, want none and %d", v.Name, len(pt.ByWays), len(pt.Shared), len(study))
		}
		for i, r := range rs {
			if r.WarmByWays != nil {
				t.Errorf("%s: %s carries per-way bounds on an L2 platform", v.Name, study[i].Name)
			}
		}
	}
}

// TestTableNamesFailingApp pins that an analysis error names the
// application whose program failed.
func TestTableNamesFailingApp(t *testing.T) {
	plat := wcet.PaperPlatform()
	plat.Cache.Ways, plat.Cache.Policy = 2, cachesim.FIFO
	_, _, err := apps.Table(apps.CaseStudy(), plat)
	if err == nil || !strings.Contains(err.Error(), "C1") {
		t.Fatalf("Table on a FIFO cache: err %v, want one naming C1", err)
	}
}
