package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/httpsim"
	"repro/internal/model"
	"repro/internal/policies"
	"repro/internal/rng"
	"repro/internal/stats"
)

// figuresRun is figures-quick: one regeneration of the paper's Figures 1, 2
// and 3 per operation, at the quick scale.
type figuresRun struct {
	opts  experiments.Options
	figs  [3]*stats.Figure
	first [3]*stats.Figure // the warm regeneration; every later one must match it
	// digest is the first regeneration's and digestChanges counts later ones
	// that hash differently: the experiments fold their runs in scheduling
	// order (ROADMAP item 1), so the last digits move even at Workers 1.
	digest        [sha256.Size]byte
	digestChanges int
}

var figureFuncs = [3]func(experiments.Options) (*stats.Figure, error){
	experiments.Figure1, experiments.Figure2, experiments.Figure3,
}

var figureSpans = [3]string{"experiments.figure1_s", "experiments.figure2_s", "experiments.figure3_s"}

func (r *figuresRun) setup(seed uint64) error {
	r.opts = experiments.Quick()
	r.opts.Workload = quickWorkload()
	r.opts.Net = fixedNet()
	r.opts.Seed = seed
	r.opts.Runs = 4
	r.opts.Workers = 1
	r.opts.PlanWorkers = 1
	if err := r.regenerate(nil, 0); err != nil {
		return err
	}
	r.first, r.digest = r.figs, r.hash()
	return nil
}

func (r *figuresRun) close() {}

func (r *figuresRun) regenerate(rec *recorder, op int) error {
	for i, fn := range figureFuncs {
		var err error
		rec.call(figureSpans[i], 0, op, func() { r.figs[i], err = fn(r.opts) })
		if err != nil {
			return err
		}
	}
	return nil
}

// hash digests the three figures' CSV renderings.
func (r *figuresRun) hash() [sha256.Size]byte {
	var buf bytes.Buffer
	for _, f := range r.figs {
		if err := f.WriteCSV(&buf); err != nil {
			panic(err) // a bytes.Buffer does not fail
		}
	}
	return sha256.Sum256(buf.Bytes())
}

// objective is the mean, over every plotted point of the three figures, of
// the simulated response time relative to the unconstrained plan's: the
// figures' own y axis ("% increase"), as a ratio.
func (r *figuresRun) objective() float64 {
	var sum float64
	var n int
	for _, f := range r.figs {
		for _, s := range f.Series {
			for _, y := range s.Y {
				sum += 1 + y/100
				n++
			}
		}
	}
	return sum / float64(n)
}

func (r *figuresRun) measure(budget time.Duration, t *tally, rec *recorder) *sample {
	var err error
	return serialLoop(budget, t, func(i int) { err = r.regenerate(rec, i) }, func(int) error {
		if err != nil {
			return err
		}
		if r.hash() != r.digest {
			r.digestChanges++
		}
		return r.sameFigures()
	})
}

// sameFigures compares every plotted value with the first regeneration's,
// to a relative 1e-9: until the experiments fold their runs in run order,
// byte equality is not theirs to give.
func (r *figuresRun) sameFigures() error {
	for i, f := range r.figs {
		for si, s := range f.Series {
			want := r.first[i].Series[si]
			if len(s.Y) != len(want.Y) {
				return fmt.Errorf("figure %d series %q has %d points, first regeneration had %d", i+1, s.Name, len(s.Y), len(want.Y))
			}
			for k, y := range s.Y {
				if math.Abs(y-want.Y[k]) > 1e-9*math.Max(1, math.Abs(want.Y[k])) {
					return fmt.Errorf("figure %d series %q point %d: %v, first regeneration gave %v", i+1, s.Name, k, y, want.Y[k])
				}
			}
		}
	}
	return nil
}

func (r *figuresRun) layers(budget time.Duration, t *tally, rec *recorder, out map[string]float64) {
	out["experiments.digest_changes"] = float64(r.digestChanges)
	wide := r.opts
	wide.Workers = runtime.NumCPU()
	out["experiments.figures_s_workers_max"] = medianOf(budget/3, func() {
		for _, fn := range figureFuncs {
			if _, err := fn(wide); err != nil {
				panic(err)
			}
		}
	}).Seconds()

	env, err := newEnv(r.opts.Workload, r.opts.Seed, model.FullBudgets)
	if err != nil {
		panic(err)
	}
	envLayers(budget/6, env, out)
	simLayers(budget/2, r.opts.Seed, out)
}

// simLayers times the three simulator passes the figures are made of, per
// simulated request, at Table-1 scale.
func simLayers(budget time.Duration, seed uint64, out map[string]float64) {
	env, err := newEnv(tableWorkload(), seed, model.FullBudgets)
	if err != nil {
		panic(err)
	}
	p, _, err := core.Plan(env, core.Options{Workers: 1})
	if err != nil {
		panic(err)
	}
	lru, err := policies.NewLRU(env.W, env.Budgets.Scale(env.W, 0.5, 1), seed)
	if err != nil {
		panic(err)
	}
	cfg := httpsim.DefaultConfig(env.W)
	cfg.Workers = 1
	queueing := cfg
	queueing.Queueing = true
	requests := float64(cfg.RequestsPerSite * env.W.NumSites())
	for _, pass := range []struct {
		name string
		dec  httpsim.Decider
		cfg  httpsim.Config
	}{
		{"httpsim.static_ns_per_req", policies.NewStatic("Proposed", p), cfg},
		{"httpsim.queueing_ns_per_req", policies.NewStatic("Proposed", p), queueing},
		{"httpsim.lru_ns_per_req", lru, cfg},
	} {
		d := medianOf(budget/3, func() {
			if _, err := httpsim.Run(env.W, env.Est, pass.dec, pass.cfg, rng.New(seed)); err != nil {
				panic(err)
			}
		})
		out[pass.name] = float64(d) / requests
	}
}
