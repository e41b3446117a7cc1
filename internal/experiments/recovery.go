package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/repair"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Recovery timeline constants: the experiment plays one scripted outage —
// the busiest site fails at recoveryFailAt, the repaired plan is live one
// MTTR later, and the site returns after dwelling at the repaired plateau
// for a second MTTR — against a supervisor with the controller's default
// K-of-N thresholds scaled to a 1 s probe. The horizon adapts to the
// slowest run (the paper's repository links are modem-era, so re-homing a
// site's replicas is transfer-bound and takes hours, not seconds).
// Everything is analytic (model evaluation plus estimated re-replication
// transfer times), so the result is bit-reproducible per seed at any
// worker count.
const (
	recoveryFailAt        = units.Seconds(10)
	recoveryProbeInterval = units.Seconds(1)
)

// Probe thresholds mirrored from the controller defaults, plus the shared
// timeline grid resolution.
const (
	recoveryFailThreshold = 3
	recoveryOKThreshold   = 2
	recoveryTimelineSteps = 120
)

// RecoveryRun is one run's scripted-outage accounting.
type RecoveryRun struct {
	Run        int
	FailedSite workload.SiteID
	Rehomed    int
	CopyBytes  units.ByteSize
	// MTTD is time-to-detection: FailThreshold consecutive probe misses.
	MTTD units.Seconds
	// MTTR is time-to-repair: detection plus the re-replication window (the
	// slowest survivor streaming its copy set from the repository).
	MTTR units.Seconds
	// RecoverTime is the symmetric path when the site returns: OKThreshold
	// probe hits plus copying the dropped replicas back.
	RecoverTime units.Seconds
	// DHealthy/DDegraded/DRepaired are the objective in the three plateaus;
	// DDegraded includes the per-view failover-delay charge the degraded
	// study uses (degradedFailoverDelay on every down-site view).
	DHealthy  float64
	DDegraded float64
	DRepaired float64
	// Feasible reports Eq. 8-10 on the survivors under the repaired plan.
	Feasible bool
}

// RecoveryResult is the study's output: per-run accounting plus the D(t)
// trajectory figure (self-healing vs PR 3's fallback-only client, relative
// to the healthy objective).
type RecoveryResult struct {
	Runs     []RecoveryRun
	Timeline *stats.Figure
}

// Recovery plays the scripted outage through the repair planner and reports
// MTTR and the D-over-time trajectory. The "Self-healing" series pays the
// degraded objective only during detection + re-replication, then settles
// at the repaired objective until the returned site is restored; the
// "Fallback only" series (PR 3's client, no controller) pays the degraded
// objective for the whole outage.
func Recovery(opts Options) (*RecoveryResult, error) {
	runs := make([]RecoveryRun, opts.Runs)
	type schedule struct {
		repairedAt, returnAt, recoveredAt units.Seconds
		dHealthy, dDegraded, dRepaired    float64
	}
	scheds := make([]schedule, opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		r := env.r
		// Plan at half storage, like the degraded study: self-healing is
		// interesting precisely when replicas are a constrained resource.
		penv, p, _, err := env.plan(env.w, storageOnly(env.w, 0.5), core.Options{})
		if err != nil {
			return err
		}

		// Fail the busiest site — the worst case the paper's static plan
		// leaves unprotected.
		failed := busiestSite(env.w)
		down := map[workload.SiteID]bool{failed: true}
		rp, err := repair.Compute(penv, p, []workload.SiteID{failed}, repair.Options{Workers: opts.planWorkers()})
		if err != nil {
			return err
		}

		failoverCharge := penv.Alpha1 * repair.DownFreq(env.w, down) * float64(degradedFailoverDelay)
		run := RecoveryRun{
			Run:        r,
			FailedSite: failed,
			Rehomed:    len(rp.Delta.Rehomed),
			CopyBytes:  rp.Delta.CopyBytes,
			MTTD:       units.Seconds(recoveryFailThreshold) * recoveryProbeInterval,
			DHealthy:   rp.Delta.DHealthy,
			DDegraded:  rp.Delta.DBefore + failoverCharge,
			DRepaired:  rp.Delta.DAfter,
			Feasible:   rp.Delta.Feasible,
		}
		run.MTTR = run.MTTD + copyWindow(env, rp.Delta.Copies)
		rec := rp.Recover()
		run.RecoverTime = units.Seconds(recoveryOKThreshold)*recoveryProbeInterval + copyWindow(env, rec.Copies)
		runs[r] = run

		// Script this run's episode: repaired one MTTR after the failure,
		// the site dwells down for a second MTTR (so the repaired plateau
		// is as long as the repair), then recovery copies replicas back.
		repairedAt := recoveryFailAt + run.MTTR
		returnAt := recoveryFailAt + 2*run.MTTR
		scheds[r] = schedule{
			repairedAt:  repairedAt,
			returnAt:    returnAt,
			recoveredAt: returnAt + run.RecoverTime,
			dHealthy:    run.DHealthy,
			dDegraded:   run.DDegraded,
			dRepaired:   run.DRepaired,
		}
		opts.progressf("recovery run %d: site %d failed — %d pages re-homed, copy %s, MTTD %.1fs, MTTR %.1fs (D %.0f -> %.0f -> %.0f)",
			r, failed, run.Rehomed, run.CopyBytes, float64(run.MTTD), float64(run.MTTR),
			run.DHealthy, run.DDegraded, run.DRepaired)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Sample every run's step trajectory on a common grid spanning the
	// slowest episode (plus a settled tail).
	var horizon units.Seconds
	for _, sc := range scheds {
		if sc.recoveredAt > horizon {
			horizon = sc.recoveredAt
		}
	}
	horizon *= 1.05
	step := horizon / recoveryTimelineSteps
	col := newCollector(len(scheds))
	for r, sc := range scheds {
		rel := func(d float64) float64 { return 100 * (d - sc.dHealthy) / sc.dHealthy }
		for i := 0; i <= recoveryTimelineSteps; i++ {
			t := units.Seconds(i) * step
			heal := sc.dHealthy
			switch {
			case t < recoveryFailAt:
			case t < sc.repairedAt:
				heal = sc.dDegraded
			case t < sc.recoveredAt:
				heal = sc.dRepaired
			}
			fb := sc.dHealthy
			if t >= recoveryFailAt && t < sc.returnAt {
				fb = sc.dDegraded
			}
			col.add(r, "Self-healing", float64(t), rel(heal))
			col.add(r, "Fallback only", float64(t), rel(fb))
		}
	}
	fig := col.figure("Recovery: objective over a scripted site outage",
		"time (s)", []string{"Self-healing", "Fallback only"})
	fig.YLabel = "% increase in D vs healthy placement"
	return &RecoveryResult{Runs: runs, Timeline: fig}, nil
}

// busiestSite returns the site hosting the highest total page-request rate
// (ties to the lowest ID) — deterministic per workload.
func busiestSite(w *workload.Workload) workload.SiteID {
	best, bestLoad := workload.SiteID(0), -1.0
	for i := range w.Sites {
		load := 0.0
		for _, pid := range w.Sites[i].Pages {
			load += float64(w.Pages[pid].Freq)
		}
		if load > bestLoad {
			best, bestLoad = workload.SiteID(i), load
		}
	}
	return best
}

// copyWindow is the re-replication wall clock: every survivor streams its
// copy set from the repository concurrently, so the window is the slowest
// survivor's estimated transfer time.
func copyWindow(env *runEnv, copies []repair.Copy) units.Seconds {
	var worst units.Seconds
	for _, c := range copies {
		if t := env.est.Sites[c.Site].RepoRate.TransferTime(c.Bytes); t > worst {
			worst = t
		}
	}
	return worst
}

// MeanMTTR averages MTTR over the runs.
func (r *RecoveryResult) MeanMTTR() units.Seconds {
	if len(r.Runs) == 0 {
		return 0
	}
	var sum units.Seconds
	for _, run := range r.Runs {
		sum += run.MTTR
	}
	return sum / units.Seconds(len(r.Runs))
}

// Write renders the per-run table and the MTTR summary.
func (r *RecoveryResult) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-4s %-5s %-8s %-10s %-7s %-7s %-8s %-10s %-10s %-10s %s\n",
		"run", "site", "rehomed", "copy", "MTTD", "MTTR", "recover", "D healthy", "D degr", "D repair", "feasible"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		if _, err := fmt.Fprintf(w, "%-4d %-5d %-8d %-10s %-7.1f %-7.1f %-8.1f %-10.0f %-10.0f %-10.0f %v\n",
			run.Run, run.FailedSite, run.Rehomed, run.CopyBytes,
			float64(run.MTTD), float64(run.MTTR), float64(run.RecoverTime),
			run.DHealthy, run.DDegraded, run.DRepaired, run.Feasible); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "mean MTTR: %.1fs (detection %.0fs probes + re-replication)\n",
		float64(r.MeanMTTR()), float64(units.Seconds(recoveryFailThreshold)*recoveryProbeInterval))
	return err
}
