package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// relativeD is the objective of p as a share of the no-replication
// objective (everything fetched from the repository): what is left of the
// download time the paper sets out to minimise.
func relativeD(env *model.Env, p *model.Placement) float64 {
	return model.D(env, p) / model.D(env, model.AllRemote(env.W))
}

// planRun is plan-constrained and plan-unconstrained: one core.Plan per
// operation over the Table-1 workload.
type planRun struct {
	constrained bool
	opts        core.Options

	env   *model.Env
	first *model.Placement // the warm operation's placement; every later one must equal it
	last  *model.Placement
	res   *core.Result
	// counts are the last replay's deallocations, processing flips,
	// off-loading rounds and off-loading messages.
	counts [4]int
	// planTime is the last untraced measurement's median core.Plan, on the
	// wall clock as the replay's spans are.
	planTime time.Duration
}

func newPlanRun(constrained bool) *planRun {
	return &planRun{constrained: constrained, opts: core.Options{Workers: 1, Refine: constrained}}
}

func (r *planRun) setup(seed uint64) error {
	env, err := newEnv(tableWorkload(), seed, func(w *workload.Workload) model.Budgets {
		b := model.FullBudgets(w)
		if r.constrained {
			b = b.Scale(w, 0.5, 0.7)
		}
		return b
	})
	if err != nil {
		return err
	}
	if r.constrained {
		// Cap the repository at 90 % of what the uncapped plan sends it, so
		// the off-loading negotiation has real work.
		probe, _, err := core.Plan(env, core.Options{Workers: 1})
		if err != nil {
			return err
		}
		env.Budgets.RepoCapacity = units.ReqPerSec(0.9 * float64(model.RepoLoad(env, probe)))
	}
	r.env = env
	r.plan()
	r.first = r.last
	return nil
}

func (r *planRun) close() {}

func (r *planRun) plan() {
	p, res, err := core.Plan(r.env, r.opts)
	if err != nil {
		panic(err) // core.Plan has no failing path today
	}
	r.last, r.res = p, res
}

func (r *planRun) check(int) error {
	switch {
	case !r.res.Feasible:
		return fmt.Errorf("plan infeasible: %v", r.res.Report.Violations())
	case !r.last.Equal(r.first):
		return fmt.Errorf("placement differs from the first repetition's")
	}
	return nil
}

func (r *planRun) objective() float64 { return relativeD(r.env, r.last) }

func (r *planRun) measure(budget time.Duration, t *tally, rec *recorder) *sample {
	if rec == nil {
		s := serialLoop(budget, t, func(int) { r.plan() }, r.check)
		r.planTime = quantile(s.raw, 0.5)
		return s
	}
	return serialLoop(budget, t, func(i int) { r.replay(rec, i) }, func(i int) error {
		if !r.last.Equal(r.first) {
			return fmt.Errorf("phase-by-phase replay differs from core.Plan's placement")
		}
		return nil
	})
}

// replay repeats core.Plan's exact call sequence at Workers 1 through the
// planner's exported phase methods, one span per call.
func (r *planRun) replay(rec *recorder, op int) *core.Planner {
	var pl *core.Planner
	var off core.OffloadStats
	var deallocs, flips int
	root := rec.begin("core.plan", 0, op)
	rec.call("core.new_planner_ms", root, op, func() { pl = core.NewPlanner(r.env) })
	rec.call("core.partition_ms", root, op, func() { pl.PartitionParallel(1, nil) })
	for i := 0; i < r.env.W.NumSites(); i++ {
		site := workload.SiteID(i)
		rec.call("core.storage_restore_ms", root, op, func() { deallocs += pl.RestoreStorageSite(site) })
		rec.call("core.processing_restore_ms", root, op, func() { flips += pl.RestoreProcessingSite(site) })
		if r.opts.Refine {
			rec.call("core.refine_ms", root, op, func() { pl.RefineSite(site) })
		}
	}
	rec.call("core.offload_ms", root, op, func() { off = pl.OffloadParallel(nil, 1, nil) })
	rec.call("model.evaluate_ms", root, op, func() { model.Evaluate(r.env, pl.Placement()) })
	rec.end(root)
	r.last = pl.Placement()
	r.counts = [4]int{deallocs, flips, off.Rounds, off.Messages}
	return pl
}

func (r *planRun) layers(budget time.Duration, t *tally, rec *recorder, out map[string]float64) {
	// The replay's phases should add up to one core.Plan.
	var phases time.Duration
	for name, durs := range rec.selfByOp() {
		if name != "core.plan" {
			phases += quantile(durs, 0.5)
		}
	}
	out["bench.phase_sum_share"] = float64(phases) / float64(r.planTime)

	// One more replay, checked from the inside.
	pl := r.replay(rec, -1)
	t.note(pl.VerifyConsistency())
	out["core.deallocs"] = float64(r.counts[0])
	out["core.proc_flips"] = float64(r.counts[1])
	out["core.offload_rounds"] = float64(r.counts[2])
	out["core.offload_messages"] = float64(r.counts[3])
	out["core.plan_D"] = r.res.D

	runtime.GC()
	m0 := readMem()
	r.plan()
	m := readMem().since(m0)
	out["core.allocs_per_plan"] = float64(m.mallocs)
	out["core.alloc_mb_per_plan"] = float64(m.bytes) / 1e6

	if r.constrained {
		wide := r.opts
		wide.Workers = runtime.NumCPU()
		out["core.plan_ms_workers_max"] = ms(medianOf(budget/2, func() {
			if _, _, err := core.Plan(r.env, wide); err != nil {
				panic(err)
			}
		}))
	}
	envLayers(budget/4, r.env, out)
}

// envLayers times the input-building layers on env's own configuration.
func envLayers(budget time.Duration, env *model.Env, out map[string]float64) {
	w := env.W
	out["workload.generate_ms"] = ms(medianOf(budget*3/4, func() { workload.MustGenerate(w.Config, w.Seed) }))
	out["netsim.draw_estimates_ms"] = ms(medianOf(budget/8, func() {
		if _, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(testbedSeed)); err != nil {
			panic(err)
		}
	}))
	out["model.new_env_ms"] = ms(medianOf(budget/8, func() {
		if _, err := model.NewEnv(w, env.Est, env.Budgets); err != nil {
			panic(err)
		}
	}))
}
