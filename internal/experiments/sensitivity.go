package experiments

import (
	"repro/internal/policies"
	"repro/internal/stats"
)

// severityGrid sweeps how far actual network conditions drift from the
// planner's estimates: 0 = none (actual == estimate), 1 = the paper's §5.1
// model, 2 = twice the deviation.
var severityGrid = []float64{0, 0.5, 1.0, 1.5, 2.0}

// Sensitivity measures the paper's robustness claim ("the proposed policy
// performed well ... even when the network attributes significantly vary
// from the estimations used during allocation decisions"): at each
// perturbation severity, the proposed policy (planned at 50 % storage on
// the *estimates*), the warm LRU baseline at the same storage and the
// Local policy are simulated under the scaled deviation model, each
// reported relative to the proposed policy itself at that severity — so
// the curves show whether the *gap* survives hostile conditions, not the
// general slowdown.
func Sensitivity(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		half := storageOnly(env.w, 0.5)
		for _, severity := range severityGrid {
			cfg := env.simCfg
			cfg.Perturb = opts.Perturb.Scale(severity)

			oursRT, _, err := env.simulatePlanned(half, cfg)
			if err != nil {
				return err
			}
			col.add(env.r, "Proposed", severity, 0)

			lru, err := policies.NewLRU(env.w, half, env.simSeed+uint64(env.r))
			if err != nil {
				return err
			}
			lruCfg := cfg
			lruCfg.Warmup = true
			lruRT, err := env.simulate(env.w, lru, lruCfg)
			if err != nil {
				return err
			}
			col.add(env.r, "LRU", severity, stats.RelativeIncrease(lruRT, oursRT))

			localRT, err := env.simulate(env.w, policies.NewLocal(env.w), cfg)
			if err != nil {
				return err
			}
			col.add(env.r, "Local", severity, stats.RelativeIncrease(localRT, oursRT))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := col.figure("Sensitivity: estimate-vs-actual deviation severity (50% storage)",
		"perturbation severity (1 = paper)", []string{"Proposed", "LRU", "Local"})
	fig.YLabel = "% increase in response time vs proposed at same severity"
	return fig, nil
}
