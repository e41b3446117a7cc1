package experiments

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/policies"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// runEnv is the one context every study plans, simulates and folds through:
// the run's generated workload, the drawn estimates, the simulation seed and
// the traffic recorded from it (shared by every policy and sweep point so
// all of them see identical traffic), and the unconstrained-proposed-policy
// reference response time the figures divide by. Run r's runEnv is touched
// by run r's goroutine only.
type runEnv struct {
	opts *Options
	r    int
	w    *workload.Workload
	est  *netsim.Estimates
	// simCfg is the run's simulator configuration; warmCfg is the same with
	// a warm-up pass first (the ideal-cache start of the dynamic baselines).
	simCfg, warmCfg httpsim.Config
	simSeed         uint64

	// traffic is the most recently recorded trace, trafficW the workload and
	// trafficCfg the record-time settings (nothing else of the config, so no
	// study's sinks are kept alive) it was recorded for; replay re-records
	// when a study moves to another workload, perturbation or request count.
	traffic    *httpsim.Trace
	trafficW   *workload.Workload
	trafficCfg httpsim.Config

	// part is w's PARTITION outcome, computed on the first plan of w and
	// shared by every later one: every budget sweep point of the run
	// re-plans only the budget-dependent phases from a copy of it.
	part *core.Partitioned

	// base is the reference response time, planned and simulated on first
	// use (the analytic and live-cluster studies never read it); baseErr is
	// that computation's failure, which forEachRun reports for the run.
	base    float64
	baseErr error
}

// stream labels for run derivation.
const (
	runWorkloadStream uint64 = iota + 101
	runEstimateStream
	runTrafficStream

	// table1Run is the run index whose workload the Table 1 audit draws:
	// run 0, so the audited workload is the one Run would use first.
	table1Run uint64 = 0
)

// newRunEnv builds run r.
func newRunEnv(opts *Options, r int) (*runEnv, error) {
	root := rng.New(opts.Seed)
	wSeed := root.Split(runWorkloadStream, uint64(r)).Seed()
	w, err := workload.Generate(opts.Workload, wSeed)
	if err != nil {
		return nil, err
	}
	est, err := netsim.DrawEstimates(opts.Net, w.NumSites(), root.Split(runEstimateStream, uint64(r)))
	if err != nil {
		return nil, err
	}
	env := &runEnv{
		opts: opts,
		r:    r,
		w:    w,
		est:  est,
		simCfg: httpsim.Config{
			RequestsPerSite: opts.requests(),
			Perturb:         opts.Perturb,
			Workers:         1, // runs parallelize at the outer level
		},
		simSeed: root.Split(runTrafficStream, uint64(r)).Seed(),
	}
	env.warmCfg = env.simCfg
	env.warmCfg.Warmup = true
	return env, nil
}

// storageOnly returns w's budgets at frac of every site's MO storage with
// every processing constraint relaxed: infinite site and repository
// capacity. storageOnly(w, 1) is the unconstrained reference.
func storageOnly(w *workload.Workload, frac float64) model.Budgets {
	b := model.FullBudgets(w).Scale(w, frac, 1)
	for i := range b.SiteCapacity {
		b.SiteCapacity[i] = model.Infinite()
	}
	b.RepoCapacity = model.Infinite()
	return b
}

// capacityOnly returns w's budgets at full storage and frac of every site's
// processing capacity, the repository unconstrained.
func capacityOnly(w *workload.Workload, frac float64) model.Budgets {
	b := storageOnly(w, 1)
	for i := range b.SiteCapacity {
		b.SiteCapacity[i] = units.ReqPerSec(float64(w.Sites[i].Capacity) * frac)
	}
	return b
}

// plan plans the proposed policy for w (the run's workload or a drifted copy
// of it) under budgets b, at the intra-plan width the options ask for. tune
// selects the planner's ablations; its Workers field is overwritten. Plans
// of the run's own workload in sorted order start from the run's shared
// partition; any other workload and the unsorted ablation plan from
// scratch. The model environment comes back with the placement because
// model.D, RepoLoad and the repair planner evaluate against it.
func (e *runEnv) plan(w *workload.Workload, b model.Budgets, tune core.Options) (*model.Env, *model.Placement, *core.Result, error) {
	menv, err := model.NewEnv(w, e.est, b)
	if err != nil {
		return nil, nil, nil, err
	}
	tune.Workers = e.opts.planWorkers()
	if w != e.w || tune.UnsortedPartition {
		p, res, err := core.Plan(menv, tune)
		return menv, p, res, err
	}
	if e.part == nil {
		e.part = core.Partition(menv, tune)
	}
	p, res, err := e.part.Plan(menv, tune)
	return menv, p, res, err
}

// replay measures one policy over w on the run's fixed traffic seed —
// httpsim.Run without re-drawing the requests: the traffic is recorded once
// and replayed for every policy and sweep point that shares its workload and
// record-time settings (PerturbConfig holds slices, hence DeepEqual).
func (e *runEnv) replay(w *workload.Workload, dec httpsim.Decider, cfg httpsim.Config) (*httpsim.Result, error) {
	if e.traffic == nil || e.trafficW != w || e.trafficCfg.RequestsPerSite != cfg.RequestsPerSite ||
		!reflect.DeepEqual(e.trafficCfg.Perturb, cfg.Perturb) {
		tr, err := httpsim.Record(w, e.est, cfg, rng.New(e.simSeed))
		if err != nil {
			return nil, err
		}
		e.traffic, e.trafficW = tr, w
		e.trafficCfg = httpsim.Config{RequestsPerSite: cfg.RequestsPerSite, Perturb: cfg.Perturb}
	}
	return httpsim.Replay(w, e.traffic, dec, cfg)
}

// simulate replays one policy over w and returns the composite mean
// response time.
func (e *runEnv) simulate(w *workload.Workload, dec httpsim.Decider, cfg httpsim.Config) (float64, error) {
	res, err := e.replay(w, dec, cfg)
	if err != nil {
		return 0, err
	}
	return res.CompositeMean(), nil
}

// simulatePlanned plans the proposed policy under budgets and simulates it,
// returning the composite mean response time plus the plan's statistics
// (for progress narration and assertions).
func (e *runEnv) simulatePlanned(b model.Budgets, cfg httpsim.Config) (float64, *core.Result, error) {
	_, p, pr, err := e.plan(e.w, b, core.Options{})
	if err != nil {
		return 0, nil, err
	}
	rt, err := e.simulate(e.w, policies.NewStatic("Proposed", p), cfg)
	return rt, pr, err
}

// baseRT is the figures' denominator: the response time of the proposed
// policy with no constraints (full storage, unconstrained processing
// everywhere).
func (e *runEnv) baseRT() float64 {
	if e.base == 0 && e.baseErr == nil {
		e.base, _, e.baseErr = e.simulatePlanned(storageOnly(e.w, 1), e.simCfg)
		if e.baseErr == nil && e.base <= 0 {
			e.baseErr = fmt.Errorf("experiments: non-positive baseline response time")
		}
		e.opts.progressf("run %d: %d pages / %d objects, baseline rt %.4gs",
			e.r, e.w.NumPages(), e.w.NumObjects(), e.base)
	}
	return e.base
}

// rel is rt's increase over the run's reference response time, in percent.
func (e *runEnv) rel(rt float64) float64 { return stats.RelativeIncrease(rt, e.baseRT()) }

// forEachRun executes fn(env) for every run's environment, bounded by
// opts.Workers and started in run order (so at Workers 1 the runs execute
// one after another, in order). Errors abort with the first failure in run
// order.
func forEachRun(opts *Options, fn func(env *runEnv) error) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	workers := opts.workers()
	if workers > opts.Runs {
		workers = opts.Runs
	}
	errs := make([]error, opts.Runs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for r := 0; r < opts.Runs; r++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(r int) {
			defer wg.Done()
			defer func() { <-sem }()
			env, err := newRunEnv(opts, r)
			if err == nil {
				err = fn(env)
			}
			if err == nil {
				err = env.baseErr
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
