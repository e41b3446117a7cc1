package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Flash-crowd scenario constants: each run builds one static half-storage
// plan, then plays flashCrowdEpochs epochs of cumulative hot-set rotation
// (workload.Drift at flashCrowdSwapFrac per epoch — §4.1's "breaking news"
// pattern). Every epoch spans flashCrowdWindow seconds of sampled request
// traffic feeding a streaming estimator whose half-life is short enough
// that, by the end of an epoch, the previous epoch's mass has mostly
// decayed and the snapshot reflects current demand.
const (
	flashCrowdEpochs   = 8
	flashCrowdSwapFrac = 0.3
	flashCrowdHalfLife = 30.0 // seconds
	// flashCrowdWindow is one epoch's traffic window.
	flashCrowdWindow = units.Seconds(120)
)

// stream labels for the flash-crowd study's derivations (disjoint from the
// runner's 101+ range).
const (
	flashDriftStream uint64 = iota + 601
	flashTrafficStream
)

// FlashCrowdEpoch is one epoch's accounting within a run.
type FlashCrowdEpoch struct {
	Epoch int
	// DriftL1 is the detector's L1 divergence between the estimated
	// frequency vector and the live plan's baseline at the epoch's end.
	DriftL1   float64
	Triggered bool
	// Replanned reports the online planner shipped a new placement this
	// epoch; a triggered check whose re-plan left the placement unchanged
	// ships nothing and counts as a no-op instead.
	Replanned bool
	CopyBytes units.ByteSize
	// DStatic/DOnline/DOracle evaluate, under the epoch's true demand, the
	// initial static plan, the online planner's current plan, and a fresh
	// plan built from the true frequencies (the clairvoyant bound).
	DStatic float64
	DOnline float64
	DOracle float64
}

// FlashCrowdRun is one run's full episode.
type FlashCrowdRun struct {
	Run int
	// D0 is the static plan's objective under the initial demand — the
	// figure's reference level.
	D0        float64
	Epochs    []FlashCrowdEpoch
	Replans   int
	Noops     int
	CopyBytes units.ByteSize
}

// FlashCrowdResult is the study's output: per-run accounting plus the
// objective-over-epochs figure (static plan vs online planner vs oracle
// re-plan, relative to each run's initial objective).
type FlashCrowdResult struct {
	Runs     []FlashCrowdRun
	Timeline *stats.Figure
}

// FlashCrowd plays hot-page rotation against the adaptive planning loop.
// Each epoch the true demand drifts, sampled request traffic feeds the
// streaming estimator, and the drift detector decides whether the online
// planner re-plans — on the *estimated* workload, never the true one —
// shipping only the placement delta. The static plan pays the full
// staleness cost; the oracle re-plans on the true frequencies every epoch
// and bounds what any adaptation can achieve. Everything is analytic and
// seeded, so the result is bit-reproducible per seed at any worker count.
func FlashCrowd(opts Options) (*FlashCrowdResult, error) {
	runs := make([]FlashCrowdRun, opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		r := env.r
		root := rng.New(opts.Seed)

		// Static plan at half storage: replicas are a constrained resource,
		// so rotating the hot set genuinely strands them.
		half := storageOnly(env.w, 0.5)
		env0, static, _, err := env.plan(env.w, half, core.Options{})
		if err != nil {
			return err
		}
		d0 := model.D(env0, static)

		est, err := estimate.New(env.w, estimate.Config{HalfLife: flashCrowdHalfLife})
		if err != nil {
			return err
		}
		det, err := estimate.NewDetector(estimate.BaselineVector(env.w), estimate.DetectorConfig{})
		if err != nil {
			return err
		}

		run := FlashCrowdRun{
			Run:    r,
			D0:     d0,
			Epochs: make([]FlashCrowdEpoch, 0, flashCrowdEpochs+1),
		}
		wTrue := env.w    // current true demand (drifts cumulatively)
		envTrue := env0   // environment of the current true demand
		online := static  // the online planner's live placement
		envOnline := env0 // environment the live placement was planned from
		perSite := env.simCfg.RequestsPerSite

		for e := 0; e <= flashCrowdEpochs; e++ {
			// The clairvoyant bound re-plans on the true frequencies.
			dOracle := d0
			if e > 0 {
				wTrue, err = workload.Drift(wTrue, flashCrowdSwapFrac,
					root.Split(flashDriftStream, uint64(r), uint64(e)).Seed())
				if err != nil {
					return err
				}
				var oracle *model.Placement
				envTrue, oracle, _, err = env.plan(wTrue, half, core.Options{})
				if err != nil {
					return err
				}
				dOracle = model.D(envTrue, oracle)
			}

			// One epoch of sampled request traffic from the true demand.
			feedEpoch(wTrue, est, perSite,
				float64(flashCrowdWindow)*float64(e), float64(flashCrowdWindow),
				root.Split(flashTrafficStream, uint64(r), uint64(e)))

			// The online controller's drift-gated re-plan at the epoch
			// boundary, on the estimated workload.
			prop, err := det.Replan(envOnline, online,
				est.Snapshot(float64(flashCrowdWindow)*float64(e+1)), opts.planWorkers())
			if err != nil {
				return err
			}
			ep := FlashCrowdEpoch{Epoch: e, DriftL1: prop.Decision.L1, Triggered: prop.Decision.Trigger}
			if prop.Decision.Trigger {
				if prop.Changed {
					online, envOnline = prop.Plan, prop.Env
					ep.Replanned = true
					ep.CopyBytes = prop.Delta.CopyBytes
					run.Replans++
					run.CopyBytes += prop.Delta.CopyBytes
				} else {
					run.Noops++
				}
				det.Rebase(estimate.BaselineVector(prop.Env.W))
			}

			ep.DStatic = model.D(envTrue, static)
			ep.DOnline = model.D(envTrue, online)
			ep.DOracle = dOracle
			run.Epochs = append(run.Epochs, ep)
			opts.progressf("flashcrowd run %d epoch %d: L1=%.3f trigger=%v replan=%v copy=%s — D static %.0f / online %.0f / oracle %.0f",
				r, e, ep.DriftL1, ep.Triggered, ep.Replanned, ep.CopyBytes,
				ep.DStatic, ep.DOnline, ep.DOracle)
		}
		runs[r] = run
		return nil
	})
	if err != nil {
		return nil, err
	}

	col := newCollector(len(runs))
	for r, run := range runs {
		rel := func(d float64) float64 { return 100 * (d - run.D0) / run.D0 }
		for _, ep := range run.Epochs {
			col.add(r, "Static plan", float64(ep.Epoch), rel(ep.DStatic))
			col.add(r, "Online planner", float64(ep.Epoch), rel(ep.DOnline))
			col.add(r, "Oracle re-plan", float64(ep.Epoch), rel(ep.DOracle))
		}
	}
	fig := col.figure("Flash crowd: objective under hot-page rotation",
		"epoch", []string{"Static plan", "Online planner", "Oracle re-plan"})
	fig.YLabel = "% increase in D vs initial placement"
	return &FlashCrowdResult{Runs: runs, Timeline: fig}, nil
}

// feedEpoch samples perSite requests per site from the workload's true
// frequencies (inverse-CDF over each site's pages) into the estimator, with
// timestamps spread uniformly over [t0, t0+window).
func feedEpoch(w *workload.Workload, est *estimate.Estimator, perSite int, t0, window float64, s *rng.Stream) {
	for i := range w.Sites {
		pages := w.Sites[i].Pages
		cum := make([]float64, len(pages))
		total := 0.0
		for idx, pid := range pages {
			total += float64(w.Pages[pid].Freq)
			cum[idx] = total
		}
		for n := 0; n < perSite; n++ {
			// u < total = cum[len-1], so the search always lands in range.
			k := sort.SearchFloat64s(cum, s.Float64()*total)
			t := t0 + window*float64(n)/float64(perSite)
			est.Observe(workload.SiteID(i), pages[k], t)
		}
	}
}

// FinalGaps returns the mean final-epoch gap over the oracle, in percent,
// for the static plan and the online planner.
func (r *FlashCrowdResult) FinalGaps() (staticPct, onlinePct float64) {
	if len(r.Runs) == 0 {
		return 0, 0
	}
	for _, run := range r.Runs {
		last := run.Epochs[len(run.Epochs)-1]
		staticPct += 100 * (last.DStatic - last.DOracle) / last.DOracle
		onlinePct += 100 * (last.DOnline - last.DOracle) / last.DOracle
	}
	n := float64(len(r.Runs))
	return staticPct / n, onlinePct / n
}

// Write renders the per-run table and the tracking summary.
func (r *FlashCrowdResult) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-4s %-8s %-6s %-10s %-12s %-12s %-12s %-10s %s\n",
		"run", "replans", "noops", "copy", "D static", "D online", "D oracle", "static+%", "online+%"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		last := run.Epochs[len(run.Epochs)-1]
		if _, err := fmt.Fprintf(w, "%-4d %-8d %-6d %-10s %-12.0f %-12.0f %-12.0f %-10.1f %.1f\n",
			run.Run, run.Replans, run.Noops, run.CopyBytes,
			last.DStatic, last.DOnline, last.DOracle,
			100*(last.DStatic-last.DOracle)/last.DOracle,
			100*(last.DOnline-last.DOracle)/last.DOracle); err != nil {
			return err
		}
	}
	staticPct, onlinePct := r.FinalGaps()
	_, err := fmt.Fprintf(w, "final epoch vs oracle: static plan +%.1f%%, online planner +%.1f%%\n",
		staticPct, onlinePct)
	return err
}
