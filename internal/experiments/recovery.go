package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/repair"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Recovery timeline constants: the experiment plays one scripted outage —
// the busiest site fails at recoveryFailAt, the repaired plan is live one
// MTTR later, and the site returns after dwelling at the repaired plateau
// for a second MTTR — against the supervisor's probe law (repair.Health)
// stepped once per 1 s probe round. The horizon adapts to the
// slowest run (the paper's repository links are modem-era, so re-homing a
// site's replicas is transfer-bound and takes hours, not seconds).
// Everything is analytic (model evaluation plus estimated re-replication
// transfer times), so the result is bit-reproducible per seed at any
// worker count.
const (
	recoveryFailAt        = units.Seconds(10)
	recoveryProbeInterval = units.Seconds(1)
	recoveryTimelineSteps = 120
)

// RecoveryRun is one run's scripted-outage accounting.
type RecoveryRun struct {
	Run        int
	FailedSite workload.SiteID
	Rehomed    int
	CopyBytes  units.ByteSize
	// MTTD is time-to-detection: probe rounds until the law says down.
	MTTD units.Seconds
	// MTTR is time-to-repair: detection plus the re-replication window (the
	// slowest survivor streaming its copy set from the repository).
	MTTR units.Seconds
	// RecoverTime is the symmetric path when the site returns: probe rounds
	// until the law lets it back, plus copying the dropped replicas back.
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

		// The probe law sees the failed site miss every round from
		// recoveryFailAt on and answer every round after it returns.
		health := repair.NewHealth(env.w.NumSites(), 0)
		failoverCharge := penv.Alpha1 * repair.DownFreq(env.w, down) * float64(degradedFailoverDelay)
		run := RecoveryRun{
			Run:        r,
			FailedSite: failed,
			Rehomed:    len(rp.Delta.Rehomed),
			CopyBytes:  rp.Delta.CopyBytes,
			MTTD:       probeTime(health, failed, false),
			DHealthy:   rp.Delta.DHealthy,
			DDegraded:  rp.Delta.DBefore + failoverCharge,
			DRepaired:  rp.Delta.DAfter,
			Feasible:   rp.Delta.Feasible,
		}
		run.MTTR = run.MTTD + copyWindow(env, rp.Delta.Copies)
		run.RecoverTime = probeTime(health, failed, true) + copyWindow(env, rp.Recover().Copies)
		runs[r] = run
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
	for _, run := range runs {
		if _, _, recoveredAt := run.episode(); recoveredAt > horizon {
			horizon = recoveredAt
		}
	}
	horizon *= 1.05
	step := horizon / recoveryTimelineSteps
	col := newCollector(len(runs))
	for r, run := range runs {
		repairedAt, returnAt, recoveredAt := run.episode()
		rel := func(d float64) float64 { return 100 * (d - run.DHealthy) / run.DHealthy }
		for i := 0; i <= recoveryTimelineSteps; i++ {
			t := units.Seconds(i) * step
			heal := run.DHealthy
			switch {
			case t < recoveryFailAt:
			case t < repairedAt:
				heal = run.DDegraded
			case t < recoveredAt:
				heal = run.DRepaired
			}
			fb := run.DHealthy
			if t >= recoveryFailAt && t < returnAt {
				fb = run.DDegraded
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

// episode scripts run's outage: repaired one MTTR after the failure, the
// site dwells down for a second MTTR (so the repaired plateau is as long as
// the repair), then recovery copies replicas back.
func (run RecoveryRun) episode() (repairedAt, returnAt, recoveredAt units.Seconds) {
	returnAt = recoveryFailAt + 2*run.MTTR
	return recoveryFailAt + run.MTTR, returnAt, returnAt + run.RecoverTime
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

// probeTime steps h a round at a time, every site answering but failed,
// which answers ok, until a round crosses an edge; it commits the edge as
// the supervisor does once its plan has landed, and returns the rounds
// times the interval. Constant answers reach K-of-N's edge in finite time.
func probeTime(h *repair.Health, failed workload.SiteID, ok bool) units.Seconds {
	answers := make([]bool, len(h.States()))
	for i := range answers {
		answers[i] = i != int(failed) || ok
	}
	rtt := make([]time.Duration, len(answers))
	for k := 1; ; k++ {
		if moves, _ := h.Step(answers, rtt); slices.ContainsFunc(moves, repair.Transition.Edge) {
			h.Commit()
			return units.Seconds(k) * recoveryProbeInterval
		}
	}
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
	var mttr, mttd units.Seconds
	for _, run := range r.Runs {
		mttr += run.MTTR
		mttd = max(mttd, run.MTTD) // every run steps the same law: one detection time
	}
	_, err := fmt.Fprintf(w, "mean MTTR: %.1fs (detection %.0fs probes + re-replication)\n",
		float64(mttr/units.Seconds(max(1, len(r.Runs)))), float64(mttd))
	return err
}
