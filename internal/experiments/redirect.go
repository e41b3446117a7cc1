package experiments

import (
	"repro/internal/policies"
	"repro/internal/stats"
	"repro/internal/units"
)

// redirectGrid is the per-chain redirection penalties swept by the
// redirection study, in seconds. 0 is the paper's ideal assumption; 0.25 s
// approximates one extra round trip through a redirector; larger values
// model DNS-based schemes with cold caches.
var redirectGrid = []float64{0, 0.25, 0.5, 1.0, 2.0}

// RedirectStudy quantifies the paper's Section-6 argument: the proposed
// scheme performs its "redirection" inside the local server (rewriting
// URLs while serving the HTML, zero extra round trips), while
// redirection-based alternatives pay latency on every repository GET. The
// study simulates the ideal LRU baseline at 50 % storage with increasing
// per-GET redirection penalties against the proposed policy, on identical
// traffic — twice: once at the paper's Table-1 transfer rates (where
// multi-minute transfers drown any latency) and once at 100× those rates
// (broadband, where per-request latency dominates and the argument bites).
func RedirectStudy(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	if err := redirectPass(opts, col, " (Table-1 rates)"); err != nil {
		return nil, err
	}
	fast := opts
	fast.Net.LocalRateLo *= 100
	fast.Net.LocalRateHi *= 100
	fast.Net.RepoRateLo *= 100
	fast.Net.RepoRateHi *= 100
	if err := redirectPass(fast, col, " (100× rates)"); err != nil {
		return nil, err
	}
	fig := col.figure("Redirection cost: server-side rewriting vs per-GET redirection",
		"redirection penalty (s)", []string{
			"Proposed (Table-1 rates)", "LRU+redirect (Table-1 rates)",
			"Proposed (100× rates)", "LRU+redirect (100× rates)",
		})
	return fig, nil
}

// redirectPass runs one rate regime of the study.
func redirectPass(opts Options, col *collector, suffix string) error {
	return forEachRun(&opts, func(env *runEnv) error {
		// 50 % storage: a warm full-size cache never misses and would never
		// pay the penalty; at half storage both schemes have a realistic
		// repository stream.
		half := storageOnly(env.w, 0.5)

		// The proposed policy at the same storage, no penalty (its
		// "redirection" is the serving-time URL rewrite): a flat reference.
		oursRT, _, err := env.simulatePlanned(half, env.simCfg)
		if err != nil {
			return err
		}
		for _, penalty := range redirectGrid {
			lru, err := policies.NewLRU(env.w, half, env.simSeed+uint64(env.r))
			if err != nil {
				return err
			}
			cfg := env.warmCfg
			cfg.RemoteRedirectPenalty = units.Seconds(penalty)
			lruRT, err := env.simulate(env.w, lru, cfg)
			if err != nil {
				return err
			}
			col.add(env.r, "LRU+redirect"+suffix, penalty, env.rel(lruRT))
			col.add(env.r, "Proposed"+suffix, penalty, env.rel(oursRT))
		}
		return nil
	})
}
