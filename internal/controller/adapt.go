package controller

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// AdaptOptions tunes the adaptive re-planning loop.
type AdaptOptions struct {
	// Detector configures the drift thresholds (estimate.DetectorConfig
	// zero values take that package's defaults).
	Detector estimate.DetectorConfig
	// Workers bounds the re-planning concurrency (0 = GOMAXPROCS); plans
	// are identical at any width.
	Workers int
}

// Cycle is one drift check's outcome.
type Cycle struct {
	// Decision is the detector's verdict on this check.
	Decision estimate.Decision
	// Replanned reports that a new placement shipped to the cluster.
	Replanned bool
	// Noop reports that the detector triggered but re-planning produced a
	// placement identical to the live one, so nothing shipped.
	Noop bool
	// Delta is the shipped (or would-be) change summary; nil when the
	// detector did not trigger. On a re-plan, Delta.CopyBytes is the
	// bytes-moved cost journaled for the adaptation.
	Delta *repair.Delta
}

// Adapter is the drift signal source. It closes the loop the paper's §4.1
// leaves open: it watches a streaming frequency estimate (fed by the
// cluster's access-log tap), detects drift against the traffic the base
// plan was built from, and when the drift is worth acting on re-runs the
// planner and submits the result as the reconciler's new base — journaling
// bytes-moved as the cost. Placement targets are CDN-style clusters, so an
// unchanged placement is explicitly recognized and never submitted.
//
// CheckNow is one synchronous cycle (replserve -adapt without -serve);
// Start runs one every 5 s (adaptPeriod) on the cluster-uptime clock.
type Adapter struct {
	source
	est   *estimate.Estimator
	det   *estimate.Detector
	opts  AdaptOptions
	start time.Time

	mu sync.Mutex // serializes CheckNow

	cChecks, cTriggers, cReplans, cNoops, cCopyBytes *telemetry.Counter
	gDriftL1                                         *telemetry.Gauge
}

// Adapter builds the adaptive loop over the reconciler's base plan (the
// drift baseline); est must be the estimator wired into the cluster as its
// access tap.
func (r *Reconciler) Adapter(est *estimate.Estimator, opts AdaptOptions) (*Adapter, error) {
	env, _ := r.Base()
	det, err := estimate.NewDetector(estimate.BaselineVector(env.W), opts.Detector)
	if err != nil {
		return nil, err
	}
	reg := r.opts.Metrics
	a := &Adapter{
		source: source{rec: r, name: "adapt", period: adaptPeriod},
		est:    est,
		det:    det,
		opts:   opts,
		start:  time.Now(),

		cChecks:    reg.Counter("adapt.checks"),
		cTriggers:  reg.Counter("adapt.triggers"),
		cReplans:   reg.Counter("adapt.replans"),
		cNoops:     reg.Counter("adapt.noops"),
		cCopyBytes: reg.Counter("adapt.copy_bytes"),
		gDriftL1:   reg.Gauge("adapt.drift_l1"),
	}
	a.step = func() error {
		_, err := a.CheckNow(time.Since(a.start).Seconds())
		return err
	}
	return a, nil
}

// CheckNow runs one synchronous adapt cycle at estimator time t (seconds):
// snapshot the estimate and run the detector's re-plan step on it
// (estimate.Detector.Replan), then submit a changed proposal as the new
// base, rebasing the detector only once the commit succeeds.
// Serialized internally; safe to call concurrently with the loop.
func (a *Adapter) CheckNow(t float64) (*Cycle, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	journal := a.rec.opts.Journal
	env, plan := a.rec.Base()

	prop, err := a.det.Replan(env, plan, a.est.Snapshot(t), a.opts.Workers)
	if prop == nil {
		return nil, fmt.Errorf("controller: drift check: %w", err)
	}
	dec := prop.Decision
	a.cChecks.Inc()
	a.gDriftL1.Set(dec.L1)
	journal.Record("adapt.check",
		trace.F("l1", dec.L1),
		trace.F("topk_churn", dec.TopKChurn),
		trace.A("trigger", fmt.Sprint(dec.Trigger)))
	out := &Cycle{Decision: dec}
	if !dec.Trigger {
		return out, nil
	}
	a.cTriggers.Inc()
	a.logf("drift trigger: L1=%.3f topk=%.2f, re-planning", dec.L1, dec.TopKChurn)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	delta := prop.Delta
	out.Delta = &delta

	// Only submit a change: an unchanged placement (no new replicas, no
	// flipped local/remote marks) must cost zero bytes and zero churn, so
	// the reconciler never hears of it.
	if !prop.Changed {
		a.cNoops.Inc()
		a.det.Rebase(estimate.BaselineVector(prop.Env.W)) // the re-estimated traffic is the new baseline
		journal.Record("adapt.noop",
			trace.F("l1", dec.L1),
			trace.F("d_stale", delta.DBefore))
		a.logf("re-plan is a no-op (placement unchanged), baseline rebased")
		out.Noop = true
		return out, nil
	}

	if err := a.rec.SetBase(prop.Env, prop.Plan, trace.I("copy_bytes", int64(delta.CopyBytes))); err != nil {
		return nil, err
	}
	a.cReplans.Inc()
	a.cCopyBytes.Add(int64(delta.CopyBytes))
	a.det.Rebase(estimate.BaselineVector(prop.Env.W))
	journal.Record("adapt.replanned",
		trace.I("copy_bytes", int64(delta.CopyBytes)),
		trace.F("d_stale", delta.DBefore),
		trace.F("d_after", delta.DAfter))
	a.logf("adapted: D %.4f -> %.4f, %d bytes copied",
		delta.DBefore, delta.DAfter, int64(delta.CopyBytes))
	out.Replanned = true
	return out, nil
}

// Current returns the reconciler's base: the environment and placement the
// cluster serves whenever every site is up.
func (a *Adapter) Current() (*model.Env, *model.Placement) { return a.rec.Base() }
