package core

import (
	"repro/internal/apps"
	"repro/internal/search"
)

// MulticoreEvalFunc adapts the framework to the placement search
// (search.MulticoreExact), following the paper's Section VI remark that the
// framework "can be naturally extended to a multi-core architecture, where
// each core has its own cache". A core point evaluates its joint
// (schedule, ways) point on the sub-framework of its application subset:
// the same platform and design budget over those applications, with timing
// rows sliced from the parent table, so the core's private cache is the
// full platform cache. The sub-framework is not memoized (the placement
// search's core-point cache is), and its design seeds derive from the
// point's key and the local application index exactly as a framework of
// those applications alone would derive them.
func (f *Framework) MulticoreEvalFunc() search.CoreEvalFunc {
	return func(p search.CorePoint) (search.Outcome, error) {
		sub, err := search.SubPartition(f.PartTimings, p.Apps)
		if err != nil {
			return search.Outcome{}, err
		}
		v := &Framework{
			Platform:    f.Platform,
			DesignOpt:   f.DesignOpt,
			ReportDtMax: f.ReportDtMax,
			PartTimings: sub,
			Timings:     sub.Shared,
			Apps:        make([]apps.App, len(p.Apps)),
		}
		for k, i := range p.Apps {
			v.Apps[k] = f.Apps[i]
		}
		if err := v.checkPartition(p.Point); err != nil {
			return search.Outcome{}, err
		}
		return outcome(v.evaluate(p.Point))
	}
}
