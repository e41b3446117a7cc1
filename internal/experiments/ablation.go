package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/model"
	"repro/internal/policies"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// AblationRow is one policy variant's simulated performance relative to the
// unconstrained proposed policy.
type AblationRow struct {
	Name   string
	RelPct float64 // mean % increase over the baseline
	CI95   float64
	DModel float64 // objective under the cost model (mean over runs)
}

// AblationResult compares the full algorithm with its ablations and the
// naive splits — the design-choice study DESIGN.md §7 calls for.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations measures, on identical traffic: the full planner, PARTITION
// without the decreasing-size sort, planning without the re-partitioning
// step (under 40 % storage where it matters), the naive HalfSplit and
// SizeThreshold policies, and the Local baseline.
func Ablations(opts Options) (*AblationResult, error) {
	type acc struct {
		rel stats.Accumulator
		d   stats.Accumulator
	}
	var mu sync.Mutex
	accs := map[string]*acc{}
	record := func(name string, rel, d float64) {
		mu.Lock()
		defer mu.Unlock()
		a, ok := accs[name]
		if !ok {
			a = &acc{}
			accs[name] = a
		}
		a.rel.Add(rel)
		a.d.Add(d)
	}

	err := forEachRun(&opts, func(r int, env *runEnv) error {
		measure := func(name string, b model.Budgets, planOpts core.Options) error {
			menv, err := model.NewEnv(env.w, env.est, b)
			if err != nil {
				return err
			}
			p, _, err := core.Plan(menv, planOpts)
			if err != nil {
				return err
			}
			rt, err := env.simulate(policies.NewStatic(name, p), false)
			if err != nil {
				return err
			}
			record(name, stats.RelativeIncrease(rt, env.baseRT), model.D(menv, p))
			return nil
		}

		full := unconstrainedBudgets(env.w)
		if err := measure("Proposed", full, core.Options{Workers: env.planWorkers}); err != nil {
			return err
		}
		if err := measure("Proposed (unsorted PARTITION)", full, core.Options{Workers: env.planWorkers, UnsortedPartition: true}); err != nil {
			return err
		}
		// The re-partitioning step only matters when storage forces
		// deallocations: compare at 40 % storage.
		tight := unconstrainedBudgets(env.w).Scale(env.w, 0.4, 1)
		for i := range tight.SiteCapacity {
			tight.SiteCapacity[i] = model.Infinite()
		}
		tight.RepoCapacity = model.Infinite()
		if err := measure("Proposed @40% storage", tight, core.Options{Workers: env.planWorkers}); err != nil {
			return err
		}
		if err := measure("No re-partition @40% storage", tight, core.Options{Workers: env.planWorkers, NoRepartition: true}); err != nil {
			return err
		}
		// Extension beyond the paper: the post-restoration refinement sweep.
		if err := measure("Refined @40% storage", tight, core.Options{Workers: env.planWorkers, Refine: true}); err != nil {
			return err
		}

		// Naive splits and the Local baseline, unconstrained.
		menv, err := model.NewEnv(env.w, env.est, full)
		if err != nil {
			return err
		}
		naive := []struct {
			name string
			pol  *policies.Static
		}{
			{"HalfSplit", policies.HalfSplit(env.w)},
			{"SizeThreshold(500K)", policies.SizeThreshold(env.w, int64(500*units.KB))},
			{"Local", policies.NewLocal(env.w)},
		}
		for _, n := range naive {
			rt, err := env.simulate(n.pol, false)
			if err != nil {
				return err
			}
			record(n.name, stats.RelativeIncrease(rt, env.baseRT), model.D(menv, n.pol.Placement()))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &AblationResult{}
	for name, a := range accs {
		res.Rows = append(res.Rows, AblationRow{
			Name:   name,
			RelPct: a.rel.Mean(),
			CI95:   a.rel.CI95(),
			DModel: a.d.Mean(),
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].RelPct < res.Rows[j].RelPct })
	return res, nil
}

// Write renders the ablation table.
func (r *AblationResult) Write(w io.Writer) error {
	width := 0
	for _, row := range r.Rows {
		if len(row.Name) > width {
			width = len(row.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %-18s %s\n", width, "variant", "simulated RT", "model objective D"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-*s  %+7.1f%% ±%-6.1f  %.0f\n", width, row.Name, row.RelPct, row.CI95, row.DModel); err != nil {
			return err
		}
	}
	return nil
}

// DriftGrid is the hot-set rotation fractions of the drift experiment.
var DriftGrid = []float64{0, 0.25, 0.5, 0.75, 1.0}

// DriftResult measures how stale plans age as the access pattern shifts —
// the Section-4.1 motivation for periodic re-execution ("breaking news").
// For each rotation fraction it reports the response time of the plan made
// against the *old* frequencies versus a plan refreshed on the drifted
// ones, both simulated on the drifted traffic, relative to the refreshed
// plan's own unconstrained optimum.
func Drift(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(r int, env *runEnv) error {
		// Under 50 % storage the placement actually embodies popularity
		// choices; at 100 % both plans would store everything relevant.
		budget := func(w *workload.Workload) model.Budgets {
			b := model.FullBudgets(w).Scale(w, 0.5, 1)
			for i := range b.SiteCapacity {
				b.SiteCapacity[i] = model.Infinite()
			}
			b.RepoCapacity = model.Infinite()
			return b
		}

		staleEnv, err := model.NewEnv(env.w, env.est, budget(env.w))
		if err != nil {
			return err
		}
		stalePlan, _, err := core.Plan(staleEnv, core.Options{Workers: env.planWorkers})
		if err != nil {
			return err
		}

		for _, frac := range DriftGrid {
			drifted, err := workload.Drift(env.w, frac, env.simSeed^uint64(1000+100*frac))
			if err != nil {
				return err
			}
			simOnDrift := func(p *model.Placement, name string) (float64, error) {
				cfg := env.simCfg
				res, err := httpsim.Run(drifted, env.est, policies.NewStatic(name, p), cfg, rng.New(env.simSeed))
				if err != nil {
					return 0, err
				}
				return res.CompositeMean(), nil
			}

			freshEnv, err := model.NewEnv(drifted, env.est, budget(drifted))
			if err != nil {
				return err
			}
			freshPlan, _, err := core.Plan(freshEnv, core.Options{Workers: env.planWorkers})
			if err != nil {
				return err
			}
			freshRT, err := simOnDrift(freshPlan, "fresh")
			if err != nil {
				return err
			}
			staleRT, err := simOnDrift(stalePlan, "stale")
			if err != nil {
				return err
			}
			col.add(r, "Stale plan", frac*100, stats.RelativeIncrease(staleRT, freshRT))
			col.add(r, "Re-planned", frac*100, 0)

			// The operational price of refreshing: bytes the repository
			// must push to the sites to realize the fresh plan.
			diff, err := model.Diff(stalePlan, freshPlan)
			if err != nil {
				return err
			}
			col.add(r, "Migration (GB in)", frac*100, float64(diff.TotalAddedBytes())/float64(units.GB))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := col.figure("Drift: stale plans vs re-planning (50% storage)", "hot set rotated %",
		[]string{"Stale plan", "Re-planned", "Migration (GB in)"})
	fig.YLabel = "% increase in response time vs re-planned"
	return fig, nil
}
