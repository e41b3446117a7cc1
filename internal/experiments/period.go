package experiments

import (
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/model"
	"repro/internal/policies"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// periodEpochs is how many traffic epochs the period study simulates; each
// epoch the hot set rotates by periodDriftPerEpoch.
const (
	periodEpochs        = 12
	periodDriftPerEpoch = 0.15
)

// periodGrid is the re-planning periods swept, in epochs (0 = never
// re-plan after the initial placement).
var periodGrid = []int{1, 2, 3, 6, 0}

// PeriodStudy quantifies the execution-period trade-off the paper's
// Section 6 raises for adaptive schemes ("a small time period can result in
// creating replicas at one time slot only to delete them in the next one,
// while a large in changing the replication scheme too slowly"): traffic
// drifts every epoch; the planner re-runs every k epochs; the study reports
// the mean response time across epochs (relative to an oracle that re-plans
// every epoch) and the total replica bytes migrated — responsiveness versus
// churn, as a function of the period.
func PeriodStudy(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		plan := func(w *workload.Workload) (*model.Placement, error) {
			_, p, _, err := env.plan(w, storageOnly(w, 0.5), core.Options{})
			return p, err
		}
		// Every epoch draws its own traffic from the run's seed.
		simulate := func(w *workload.Workload, p *model.Placement, epoch int) (float64, error) {
			res, err := httpsim.Run(w, env.est, policies.NewStatic("p", p), env.simCfg,
				rng.New(env.simSeed).Split(uint64(epoch)))
			if err != nil {
				return 0, err
			}
			return res.CompositeMean(), nil
		}

		// The drifting traffic sequence, shared across all periods.
		epochs := make([]*workload.Workload, periodEpochs)
		cur := env.w
		for e := 0; e < periodEpochs; e++ {
			d, err := workload.Drift(cur, periodDriftPerEpoch, env.simSeed+uint64(7000+e))
			if err != nil {
				return err
			}
			epochs[e] = d
			cur = d
		}

		// Oracle: re-plan every epoch.
		oracleRT := make([]float64, periodEpochs)
		for e, w := range epochs {
			p, err := plan(w)
			if err != nil {
				return err
			}
			rt, err := simulate(w, p, e)
			if err != nil {
				return err
			}
			oracleRT[e] = rt
		}

		for _, period := range periodGrid {
			var current *model.Placement
			var prev *model.Placement
			var sumRel float64
			var churn units.ByteSize
			for e, w := range epochs {
				if current == nil || (period > 0 && e%period == 0) {
					p, err := plan(w)
					if err != nil {
						return err
					}
					if prev != nil {
						d, err := model.Diff(prev, p)
						if err != nil {
							return err
						}
						churn += d.TotalAddedBytes()
					}
					prev, current = p, p
				}
				rt, err := simulate(w, current, e)
				if err != nil {
					return err
				}
				sumRel += stats.RelativeIncrease(rt, oracleRT[e])
			}
			x := float64(period)
			if period == 0 {
				x = float64(periodEpochs) // "never" rendered at the far end
			}
			col.add(env.r, "RT vs oracle", x, sumRel/float64(periodEpochs))
			col.add(env.r, "Churn (GB moved)", x, float64(churn)/float64(units.GB))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := col.figure("Re-planning period: responsiveness vs churn (drift 15%/epoch, 50% storage)",
		"re-plan period (epochs; rightmost = never)", []string{"RT vs oracle", "Churn (GB moved)"})
	fig.YLabel = "mean % RT over per-epoch oracle / GB migrated"
	return fig, nil
}
