package experiments

import (
	"repro/internal/policies"
	"repro/internal/stats"
)

// thresholdGrid sweeps the replication-creation threshold of the dynamic
// baseline.
var thresholdGrid = []int64{1, 2, 5, 10, 25, 50}

// ThresholdStudy demonstrates the paper's Section-6 critique of
// threshold-driven dynamic replication ("the use of threshold values makes
// the performance of the scheme dependent upon their chosen values"): the
// Threshold baseline is simulated at 50 % storage across creation
// thresholds, against the proposed static plan at the same storage, all on
// identical traffic and relative to the unconstrained proposed policy.
func ThresholdStudy(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		half := storageOnly(env.w, 0.5)
		oursRT, _, err := env.simulatePlanned(half, env.simCfg)
		if err != nil {
			return err
		}
		for _, thr := range thresholdGrid {
			pol, err := policies.NewThreshold(env.w, half, thr, 0)
			if err != nil {
				return err
			}
			// Warm like the LRU baseline: dynamic schemes adapt online, so
			// measuring from a cold start would conflate ramp-up with
			// steady state.
			rt, err := env.simulate(env.w, pol, env.warmCfg)
			if err != nil {
				return err
			}
			col.add(env.r, "Threshold dynamic", float64(thr), env.rel(rt))
			col.add(env.r, "Proposed (static plan)", float64(thr), env.rel(oursRT))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := col.figure("Threshold-driven dynamic replication vs the static plan (50% storage)",
		"replication threshold (accesses)", []string{"Proposed (static plan)", "Threshold dynamic"})
	return fig, nil
}
