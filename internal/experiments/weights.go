package experiments

import (
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/policies"
	"repro/internal/stats"
)

// weightGrid sweeps the α2/α1 ratio: 0 ignores optional downloads, the
// paper uses 0.5 (α1=2, α2=1), large values prioritize optional traffic.
var weightGrid = []float64{0, 0.25, 0.5, 1, 2, 4}

// WeightsStudy probes the objective weights' "well defined natural
// meaning" (Section 3): under tight storage the planner must trade page
// retrieval time against optional download time, and the (α1, α2) weights
// pick the point on that Pareto front. For each α2/α1 ratio the study
// plans at 30 % storage and reports the simulated mean page time and mean
// optional time per view, each relative to the unconstrained reference.
func WeightsStudy(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		// Reference means from the unconstrained plan.
		_, refPlan, _, err := env.plan(env.w, storageOnly(env.w, 1), core.Options{})
		if err != nil {
			return err
		}
		refPage, refOpt, err := pageAndOptMeans(env, refPlan)
		if err != nil {
			return err
		}

		for _, ratio := range weightGrid {
			// The planner takes its weights from the workload's
			// configuration; pages and objects are shared with the original,
			// so the placement simulates on the run's own workload.
			weighted := env.w.Derive()
			weighted.Config.Alpha1, weighted.Config.Alpha2 = 2, 2*ratio
			_, p, _, err := env.plan(weighted, storageOnly(env.w, 0.3), core.Options{})
			if err != nil {
				return err
			}
			pageMean, optMean, err := pageAndOptMeans(env, p)
			if err != nil {
				return err
			}
			col.add(env.r, "Page RT", ratio, stats.RelativeIncrease(pageMean, refPage))
			if refOpt > 0 {
				col.add(env.r, "Optional RT", ratio, stats.RelativeIncrease(optMean, refOpt))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := col.figure("Objective weights: page vs optional trade-off (30% storage)",
		"α2/α1 ratio (paper: 0.5)", []string{"Page RT", "Optional RT"})
	fig.YLabel = "% increase over the unconstrained plan"
	return fig, nil
}

// pageAndOptMeans simulates a placement on the run's traffic and returns
// the mean page retrieval time and mean optional seconds per view.
func pageAndOptMeans(env *runEnv, p *model.Placement) (pageMean, optMean float64, err error) {
	res, err := env.replay(env.w, policies.NewStatic("w", p), env.simCfg)
	if err != nil {
		return 0, 0, err
	}
	return res.PageRT.Mean(), res.OptPerView.Mean(), nil
}
