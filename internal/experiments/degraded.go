package experiments

import (
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/policies"
	"repro/internal/stats"
	"repro/internal/units"
)

// availabilityGrid is the per-view site availability swept by the
// degraded-mode study. 1 is a healthy cluster; 0.5 loses every other view's
// local replica.
var availabilityGrid = []float64{1, 0.99, 0.95, 0.9, 0.75, 0.5}

// degradedFailoverDelay is the per-degraded-view detection-and-reroute cost
// the study charges, mirroring the live client's timeout + retry + fallback
// path.
const degradedFailoverDelay = units.Seconds(0.25)

// DegradedMode quantifies the robustness claim behind the repository
// fallback: because the paper's repository is an always-on root holding every
// object, a site outage degrades a view to the remote chain instead of
// failing it. The study sweeps site availability and compares the proposed
// policy at 50 % storage against full replication (Local), no replication
// (Remote), and a repository-only system (availability 0 — the floor every
// policy decays toward), all on identical traffic with outage draws from a
// dedicated stream.
func DegradedMode(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		// Plan the proposed policy once at half storage; the placement does
		// not depend on availability, only its realized response time does.
		_, p, _, err := env.plan(env.w, storageOnly(env.w, 0.5), core.Options{})
		if err != nil {
			return err
		}
		proposed := policies.NewStatic("Proposed", p)

		outageCfg := func(avail float64) httpsim.Config {
			cfg := env.simCfg
			cfg.Outage = httpsim.OutageConfig{
				Enabled:       true,
				Availability:  avail,
				FailoverDelay: degradedFailoverDelay,
			}
			return cfg
		}

		// Repository-only floor: availability 0 degrades every view, so the
		// decider is irrelevant — one simulation, plotted flat.
		floorRT, err := env.simulate(env.w, policies.NewRemote(env.w), outageCfg(0))
		if err != nil {
			return err
		}
		for _, avail := range availabilityGrid {
			cfg := outageCfg(avail)
			for _, pol := range []struct {
				name string
				dec  httpsim.Decider
			}{
				{"Proposed (50% storage)", proposed},
				{"Full replication", policies.NewLocal(env.w)},
				{"No replication", policies.NewRemote(env.w)},
			} {
				rt, err := env.simulate(env.w, pol.dec, cfg)
				if err != nil {
					return err
				}
				col.add(env.r, pol.name, avail, env.rel(rt))
			}
			col.add(env.r, "Repository only", avail, env.rel(floorRT))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return col.figure("Degraded mode: response time vs site availability",
		"site availability", []string{
			"Proposed (50% storage)", "Full replication",
			"No replication", "Repository only",
		}), nil
}
