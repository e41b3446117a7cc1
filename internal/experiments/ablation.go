package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/policies"
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

// ablations are the planner variants the study plans, in reporting order
// before the sort by measured response time. The re-partitioning step and
// the refinement sweep (an extension beyond the paper) only matter when
// storage forces deallocations, so those compare at 40 % storage.
var ablations = []struct {
	name    string
	storage float64
	tune    core.Options
}{
	{"Proposed", 1, core.Options{}},
	{"Proposed (unsorted PARTITION)", 1, core.Options{UnsortedPartition: true}},
	{"Proposed @40% storage", 0.4, core.Options{}},
	{"No re-partition @40% storage", 0.4, core.Options{NoRepartition: true}},
	{"Refined @40% storage", 0.4, core.Options{Refine: true}},
}

// naiveSplits are the constraint-blind policies the planner is compared
// against, costed in the unconstrained environment.
var naiveSplits = []struct {
	name string
	pol  func(*workload.Workload) *policies.Static
}{
	{"HalfSplit", policies.HalfSplit},
	{"SizeThreshold(500K)", func(w *workload.Workload) *policies.Static {
		return policies.SizeThreshold(w, int64(500*units.KB))
	}},
	{"Local", policies.NewLocal},
}

// Ablations measures, on identical traffic: the full planner, PARTITION
// without the decreasing-size sort, planning without the re-partitioning
// step (under 40 % storage where it matters), the naive HalfSplit and
// SizeThreshold policies, and the Local baseline.
func Ablations(opts Options) (*AblationResult, error) {
	// One point per variant and run in each: the simulated % increase over
	// the baseline, and the objective under the cost model.
	rels, ds := newCollector(opts.Runs), newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		measure := func(name string, menv *model.Env, pol *policies.Static) error {
			rt, err := env.simulate(env.w, pol, env.simCfg)
			if err != nil {
				return err
			}
			rels.add(env.r, name, 0, env.rel(rt))
			ds.add(env.r, name, 0, model.D(menv, pol.Placement()))
			return nil
		}
		for _, a := range ablations {
			menv, p, _, err := env.plan(env.w, storageOnly(env.w, a.storage), a.tune)
			if err != nil {
				return err
			}
			if err := measure(a.name, menv, policies.NewStatic(a.name, p)); err != nil {
				return err
			}
		}
		full, err := model.NewEnv(env.w, env.est, storageOnly(env.w, 1))
		if err != nil {
			return err
		}
		for _, n := range naiveSplits {
			if err := measure(n.name, full, n.pol(env.w)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	relData, _ := rels.fold()
	dData, _ := ds.fold()
	res := &AblationResult{}
	row := func(name string) {
		rel, d := relData[name][0], dData[name][0]
		res.Rows = append(res.Rows, AblationRow{Name: name, RelPct: rel.Mean(), CI95: rel.CI95(), DModel: d.Mean()})
	}
	for _, a := range ablations {
		row(a.name)
	}
	for _, n := range naiveSplits {
		row(n.name)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool { return res.Rows[i].RelPct < res.Rows[j].RelPct })
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

// driftGrid is the hot-set rotation fractions of the drift experiment.
var driftGrid = []float64{0, 0.25, 0.5, 0.75, 1.0}

// DriftResult measures how stale plans age as the access pattern shifts —
// the Section-4.1 motivation for periodic re-execution ("breaking news").
// For each rotation fraction it reports the response time of the plan made
// against the *old* frequencies versus a plan refreshed on the drifted
// ones, both simulated on the drifted traffic, relative to the refreshed
// plan's own unconstrained optimum.
func Drift(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		// Under 50 % storage the placement actually embodies popularity
		// choices; at 100 % both plans would store everything relevant.
		_, stalePlan, _, err := env.plan(env.w, storageOnly(env.w, 0.5), core.Options{})
		if err != nil {
			return err
		}

		for _, frac := range driftGrid {
			drifted, err := workload.Drift(env.w, frac, env.simSeed^uint64(1000+100*frac))
			if err != nil {
				return err
			}
			_, freshPlan, _, err := env.plan(drifted, storageOnly(drifted, 0.5), core.Options{})
			if err != nil {
				return err
			}
			freshRT, err := env.simulate(drifted, policies.NewStatic("fresh", freshPlan), env.simCfg)
			if err != nil {
				return err
			}
			staleRT, err := env.simulate(drifted, policies.NewStatic("stale", stalePlan), env.simCfg)
			if err != nil {
				return err
			}
			col.add(env.r, "Stale plan", frac*100, stats.RelativeIncrease(staleRT, freshRT))
			col.add(env.r, "Re-planned", frac*100, 0)

			// The operational price of refreshing: bytes the repository
			// must push to the sites to realize the fresh plan.
			diff, err := model.Diff(stalePlan, freshPlan)
			if err != nil {
				return err
			}
			col.add(env.r, "Migration (GB in)", frac*100, float64(diff.TotalAddedBytes())/float64(units.GB))
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
