package experiments

import (
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/policies"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// queueingGrid is the capacity sweep of the queueing study.
var queueingGrid = []float64{0.2, 0.4, 0.6, 0.8, 1.0}

// QueueingStudy isolates what the Eq. 8 processing constraint buys when
// server occupancy is real: for each capacity level, the Eq. 8-aware plan
// and a capacity-ignorant plan (computed as if capacity were unlimited)
// are each simulated twice — with the fluid queue on and off — and the
// *queueing overhead* (the on/off difference, as a percentage of the
// unconstrained reference time) is reported. The aware plan keeps every
// server's arrival rate at or below its drain rate, so its backlog stays
// bounded; the ignorant plan overloads the servers it was told to ignore
// and its backlog grows for the whole run. (Total response time is a
// different question: at Table-1 transfer rates, shedding load to the
// 0.3-2 KB/s repository can cost more than the queueing it avoids — an
// honest trade-off the EXPERIMENTS.md notes record.)
func QueueingStudy(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		// The capacity-ignorant plan never changes with the sweep.
		_, ignorantPlan, _, err := env.plan(env.w, storageOnly(env.w, 1), core.Options{})
		if err != nil {
			return err
		}

		// The placement indexes pages by ID, which the scaled workload copy
		// shares with the original.
		overhead := func(w *workload.Workload, p *model.Placement, name string) (float64, error) {
			cfg := env.simCfg
			off, err := env.simulate(w, policies.NewStatic(name, p), cfg)
			if err != nil {
				return 0, err
			}
			cfg.Queueing = true
			on, err := env.simulate(w, policies.NewStatic(name, p), cfg)
			if err != nil {
				return 0, err
			}
			return (on - off) / env.baseRT() * 100, nil
		}

		// Plan from the loosest capacity down; simulate in grid order.
		awarePlans := make([]*model.Placement, len(queueingGrid))
		for n := len(queueingGrid) - 1; n >= 0; n-- {
			if _, awarePlans[n], _, err = env.plan(env.w, capacityOnly(env.w, queueingGrid[n]), core.Options{}); err != nil {
				return err
			}
		}
		for n, frac := range queueingGrid {
			awarePlan := awarePlans[n]

			// The simulator's queues drain at the workload's site
			// capacities; hand it a copy scaled to this sweep point.
			scaled := scaleSiteCapacities(env.w, frac)

			awareOv, err := overhead(scaled, awarePlan, "aware")
			if err != nil {
				return err
			}
			ignorantOv, err := overhead(scaled, ignorantPlan, "ignorant")
			if err != nil {
				return err
			}
			col.add(env.r, "Eq.8-aware plan", frac*100, awareOv)
			col.add(env.r, "Capacity-ignorant plan", frac*100, ignorantOv)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := col.figure("Queueing overhead: what the Eq. 8 constraint buys (fluid-queue mode)",
		"site capacity %", []string{"Eq.8-aware plan", "Capacity-ignorant plan"})
	fig.YLabel = "queueing delay as % of unconstrained response time"
	return fig, nil
}

// scaleSiteCapacities returns a derived workload whose site capacities are
// scaled by frac.
func scaleSiteCapacities(w *workload.Workload, frac float64) *workload.Workload {
	out := w.Derive()
	for i := range out.Sites {
		out.Sites[i].Capacity = units.ReqPerSec(float64(w.Sites[i].Capacity) * frac)
	}
	return out
}
