package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/policies"
	"repro/internal/rng"
	"repro/internal/workload"
)

// runEnv is the fixed context of one experiment run: the generated
// workload, the drawn estimates, the simulation seed (shared by every
// policy and sweep point so all of them see identical traffic), and the
// unconstrained-proposed-policy reference response time the figures divide
// by.
type runEnv struct {
	w       *workload.Workload
	est     *netsim.Estimates
	simCfg  httpsim.Config
	simSeed uint64
	baseRT  float64
	// planWorkers is Options.planWorkers(), threaded into every core.Plan
	// call the run makes.
	planWorkers int
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
	start := time.Now() //repllint:allow determinism — wall-clock progress narration; never feeds results
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
	simCfg := httpsim.Config{
		RequestsPerSite: opts.requests(),
		Perturb:         opts.Perturb,
		Workers:         1, // runs parallelize at the outer level
	}
	env := &runEnv{
		w:           w,
		est:         est,
		simCfg:      simCfg,
		simSeed:     root.Split(runTrafficStream, uint64(r)).Seed(),
		planWorkers: opts.planWorkers(),
	}

	// Reference: the proposed policy with no constraints (full storage,
	// unconstrained processing everywhere) — the figures' denominator.
	base, _, err := env.simulatePlanned(unconstrainedBudgets(w))
	if err != nil {
		return nil, err
	}
	env.baseRT = base
	if env.baseRT <= 0 {
		return nil, fmt.Errorf("experiments: non-positive baseline response time")
	}
	opts.progressf("run %d: environment ready — %d pages / %d objects, baseline rt %.4gs (%.2fs)",
		r, w.NumPages(), w.NumObjects(), env.baseRT, time.Since(start).Seconds()) //repllint:allow determinism — wall-clock progress narration; never feeds results
	return env, nil
}

// unconstrainedBudgets relaxes every constraint: full storage, infinite
// site and repository capacity.
func unconstrainedBudgets(w *workload.Workload) model.Budgets {
	b := model.FullBudgets(w)
	for i := range b.SiteCapacity {
		b.SiteCapacity[i] = model.Infinite()
	}
	b.RepoCapacity = model.Infinite()
	return b
}

// simulate runs one policy over the run's fixed traffic and returns the
// composite mean response time.
func (e *runEnv) simulate(dec httpsim.Decider, warmup bool) (float64, error) {
	cfg := e.simCfg
	cfg.Warmup = warmup
	return simulateWithConfig(e, dec, cfg)
}

// simulateWithConfig is simulate with a caller-adjusted configuration
// (still on the run's fixed traffic seed).
func simulateWithConfig(e *runEnv, dec httpsim.Decider, cfg httpsim.Config) (float64, error) {
	res, err := httpsim.Run(e.w, e.est, dec, cfg, rng.New(e.simSeed))
	if err != nil {
		return 0, err
	}
	return res.CompositeMean(), nil
}

// simulatePlanned plans the proposed policy under budgets and simulates it,
// returning the composite mean response time plus the plan's statistics
// (for progress narration and assertions).
func (e *runEnv) simulatePlanned(b model.Budgets) (float64, *core.Result, error) {
	env, err := model.NewEnv(e.w, e.est, b)
	if err != nil {
		return 0, nil, err
	}
	p, pr, err := core.Plan(env, core.Options{Workers: e.planWorkers})
	if err != nil {
		return 0, nil, err
	}
	rt, err := e.simulate(policies.NewStatic("Proposed", p), false)
	if err != nil {
		return 0, nil, err
	}
	return rt, pr, nil
}

// simulatePlannedWithConfig plans under budgets and simulates with a
// caller-adjusted configuration.
func simulatePlannedWithConfig(e *runEnv, b model.Budgets, cfg httpsim.Config) (float64, error) {
	env, err := model.NewEnv(e.w, e.est, b)
	if err != nil {
		return 0, err
	}
	p, _, err := core.Plan(env, core.Options{Workers: e.planWorkers})
	if err != nil {
		return 0, err
	}
	return simulateWithConfig(e, policies.NewStatic("Proposed", p), cfg)
}

// forEachRun executes fn(r, env) for every run, bounded by opts.Workers.
// Errors abort with the first failure.
func forEachRun(opts *Options, fn func(r int, env *runEnv) error) error {
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
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			env, err := newRunEnv(opts, r)
			if err != nil {
				errs[r] = err
				return
			}
			errs[r] = fn(r, env)
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

// simulateFull runs a policy on the run's traffic and returns the full
// result (callers needing more than the composite mean).
func simulateFull(e *runEnv, dec httpsim.Decider) (*httpsim.Result, error) {
	return httpsim.Run(e.w, e.est, dec, e.simCfg, rng.New(e.simSeed))
}
