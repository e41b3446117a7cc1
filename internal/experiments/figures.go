package experiments

import (
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/policies"
	"repro/internal/stats"
	"repro/internal/units"
)

// totalFlips sums the per-site processing-restoration flips of a plan.
func totalFlips(pr *core.Result) int64 {
	var n int64
	for _, s := range pr.Sites {
		n += int64(s.ProcFlips)
	}
	return n
}

// collector buffers every run's (series, x, y) points and folds them in run
// order when the figure is rendered, so the floating-point accumulation —
// and with it every byte of the output — is the same however the concurrent
// runs were scheduled. Run r's buffer is appended to only by run r, which is
// all the synchronization concurrent runs need.
type collector struct {
	runs [][]point
}

type point struct {
	series string
	x, y   float64
}

func newCollector(runs int) *collector {
	return &collector{runs: make([][]point, max(runs, 0))}
}

// add records run r's value (a relative increase, percent) at x for the
// series.
func (c *collector) add(r int, series string, x, y float64) {
	c.runs[r] = append(c.runs[r], point{series, x, y})
}

// fold accumulates the buffered points, run by run, per (series, x); xs
// keeps each series' x values in first-insertion order.
func (c *collector) fold() (data map[string]map[float64]*stats.Accumulator, xs map[string][]float64) {
	data = make(map[string]map[float64]*stats.Accumulator)
	xs = make(map[string][]float64)
	for _, pts := range c.runs {
		for _, pt := range pts {
			m, ok := data[pt.series]
			if !ok {
				m = make(map[float64]*stats.Accumulator)
				data[pt.series] = m
			}
			acc, ok := m[pt.x]
			if !ok {
				acc = &stats.Accumulator{}
				m[pt.x] = acc
				xs[pt.series] = append(xs[pt.series], pt.x)
			}
			acc.Add(pt.y)
		}
	}
	return data, xs
}

// figure renders the collected series, in the given order, as a Figure.
func (c *collector) figure(title, xlabel string, order []string) *stats.Figure {
	data, xs := c.fold()
	f := &stats.Figure{Title: title, XLabel: xlabel, YLabel: "% increase in response time vs unconstrained proposed"}
	for _, name := range order {
		if _, ok := data[name]; !ok {
			continue
		}
		s := f.AddSeries(name)
		for _, x := range xs[name] {
			acc := data[name][x]
			s.Add(x, acc.Mean(), acc.CI95())
		}
	}
	return f
}

// storageGrid is the Figure-1 sweep of local storage fractions.
var storageGrid = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// capacityGrid is the Figure-2/3 sweep of local processing fractions.
var capacityGrid = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// centralGrid is Figure 3's repository capacity fractions.
var centralGrid = []float64{0.9, 0.7, 0.5}

// Figure1 reproduces the paper's Figure 1: average response time versus
// local storage capacity with the processing constraint relaxed, for the
// proposed policy and ideal LRU, plus the flat Remote and Local reference
// levels (the paper reports +335 % and +23.8 %).
func Figure1(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		// Flat references, no constraints (§5.2).
		remoteRT, err := env.simulate(env.w, policies.NewRemote(env.w), env.simCfg)
		if err != nil {
			return err
		}
		localRT, err := env.simulate(env.w, policies.NewLocal(env.w), env.simCfg)
		if err != nil {
			return err
		}

		// The grid is planned from the loosest storage down, so each point
		// runs the last one's restoration further, and folded in its order.
		type fig1Point struct {
			ours, lru float64
			pr        *core.Result
		}
		pts := make([]fig1Point, len(storageGrid))
		for n := len(storageGrid) - 1; n >= 0; n-- {
			b := storageOnly(env.w, storageGrid[n])
			oursRT, pr, err := env.simulatePlanned(b, env.simCfg)
			if err != nil {
				return err
			}
			lruPol, err := policies.NewLRU(env.w, b, env.simSeed+uint64(env.r))
			if err != nil {
				return err
			}
			lruRT, err := env.simulate(env.w, lruPol, env.warmCfg) // warm (ideal) cache
			if err != nil {
				return err
			}
			pts[n] = fig1Point{oursRT, lruRT, pr}
		}
		for n, frac := range storageGrid {
			pt := pts[n]
			col.add(env.r, "Proposed", frac*100, env.rel(pt.ours))
			col.add(env.r, "LRU", frac*100, env.rel(pt.lru))
			col.add(env.r, "Remote", frac*100, env.rel(remoteRT))
			col.add(env.r, "Local", frac*100, env.rel(localRT))
			opts.progressf("fig1 run %d: storage %3.0f%% — plan D=%.1f feasible=%v, proposed %+.1f%%, lru %+.1f%%",
				env.r, frac*100, pt.pr.D, pt.pr.Feasible, env.rel(pt.ours), env.rel(pt.lru))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return col.figure("Figure 1: response time vs local storage capacity", "storage %",
		[]string{"Proposed", "LRU", "Local", "Remote"}), nil
}

// Figure2 reproduces Figure 2: average response time versus local
// processing capacity at 100 % storage (the paper's double-exponential
// curve, reaching the Remote level at 0 % capacity).
func Figure2(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		// From the loosest capacity down to the 0 % anchor, where everything
		// is forced remote; folded in grid order, the anchor last.
		rts := make([]float64, len(capacityGrid))
		prs := make([]*core.Result, len(capacityGrid))
		for n := len(capacityGrid) - 1; n >= 0; n-- {
			var err error
			if rts[n], prs[n], err = env.simulatePlanned(capacityOnly(env.w, capacityGrid[n]), env.simCfg); err != nil {
				return err
			}
		}
		zeroRT, _, err := env.simulatePlanned(capacityOnly(env.w, 0), env.simCfg)
		if err != nil {
			return err
		}
		for n, frac := range capacityGrid {
			col.add(env.r, "Proposed", frac*100, env.rel(rts[n]))
			opts.progressf("fig2 run %d: capacity %3.0f%% — plan D=%.1f flips=%d, proposed %+.1f%%",
				env.r, frac*100, prs[n].D, totalFlips(prs[n]), env.rel(rts[n]))
		}
		col.add(env.r, "Proposed", 0, env.rel(zeroRT))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return col.figure("Figure 2: response time vs local processing capacity (100% storage)",
		"processing capacity %", []string{"Proposed"}), nil
}

// Figure3 reproduces Figure 3: response time versus local processing
// capacity when the repository can serve only 90 %, 70 % or 50 % of the
// workload the sites' pre-offload plans direct at it, activating the
// off-loading negotiation.
func Figure3(opts Options) (*stats.Figure, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		// From the loosest local capacity down: each probe runs the last
		// one's restoration further, and the three capped points off-load
		// from copies of it. Folded in grid order.
		rts := make([][]float64, len(capacityGrid))
		prs := make([][]*core.Result, len(capacityGrid))
		for n := len(capacityGrid) - 1; n >= 0; n-- {
			// Probe: plan with an unconstrained repository to find the
			// workload the local plans would impose on it.
			b := capacityOnly(env.w, capacityGrid[n])
			probeEnv, probe, _, err := env.plan(env.w, b, core.Options{})
			if err != nil {
				return err
			}
			preLoad := model.RepoLoad(probeEnv, probe)

			for _, centralFrac := range centralGrid {
				b.RepoCapacity = units.ReqPerSec(float64(preLoad) * centralFrac)
				rt, pr, err := env.simulatePlanned(b, env.simCfg)
				if err != nil {
					return err
				}
				rts[n] = append(rts[n], rt)
				prs[n] = append(prs[n], pr)
			}
		}
		for n, localFrac := range capacityGrid {
			for c, centralFrac := range centralGrid {
				pr := prs[n][c]
				col.add(env.r, seriesName(centralFrac), localFrac*100, env.rel(rts[n][c]))
				opts.progressf("fig3 run %d: local %3.0f%% central %2.0f%% — offload rounds=%d msgs=%d restored=%v, %+.1f%%",
					env.r, localFrac*100, centralFrac*100, pr.Offload.Rounds, pr.Offload.Messages,
					pr.Offload.Restored, env.rel(rts[n][c]))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return col.figure("Figure 3: response time vs local capacity under constrained repository",
		"local processing capacity %",
		[]string{seriesName(0.9), seriesName(0.7), seriesName(0.5)}), nil
}

func seriesName(centralFrac float64) string {
	switch centralFrac {
	case 0.9:
		return "C(R)=90%"
	case 0.7:
		return "C(R)=70%"
	case 0.5:
		return "C(R)=50%"
	}
	return "C(R)=?"
}
