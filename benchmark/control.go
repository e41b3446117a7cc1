package main

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/htmlrefs"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// observations is how many page views an adapt cycle feeds the estimator.
const observations = 20000

// controlRun is control-cycles: per operation one repair plan and its
// recovery at Table-1 scale, one drift-triggered re-plan installed on a
// live cluster, and one scrub of every replica that cluster stores.
type controlRun struct {
	// (a) repair
	env *model.Env
	p   *model.Placement

	// (b) adapt and (c) scrub share one bare loopback cluster.
	small    *model.Env
	traffic  [2]*workload.Workload // planned frequencies and a hot/cold swap of them
	est      *estimate.Estimator
	cluster  *webserve.Cluster
	adapter  *controller.Adapter
	scrubber *controller.Scrubber
	clock    float64 // estimator time, seconds
	ops      int     // operations so far

	err       error
	obj       float64
	replicas  int
	scrubbed  int64 // replica bytes of the last scrub cycle
	scrubTime []time.Duration
}

func (r *controlRun) setup(seed uint64) error {
	var err error
	if r.env, err = newEnv(tableWorkload(), seed, model.FullBudgets); err != nil {
		return err
	}
	if r.p, _, err = core.Plan(r.env, core.Options{Workers: 1}); err != nil {
		return err
	}
	// Tight storage, so that drift moves replicas and a re-plan ships bytes,
	// and so that a scrub cycle is a fraction of a second. The cluster's
	// content is the testbed's; the seed decides how its traffic drifts.
	r.small, err = newEnv(quickWorkload(), testbedSeed, func(w *workload.Workload) model.Budgets {
		return model.FullBudgets(w).Scale(w, 0.1, 1)
	})
	if err != nil {
		return err
	}
	w := r.small.W
	drifted, err := workload.Drift(w, 0.5, seed)
	if err != nil {
		return err
	}
	r.traffic = [2]*workload.Workload{w, drifted}
	placed, _, err := core.Plan(r.small, core.Options{Workers: 1})
	if err != nil {
		return err
	}
	// A short half-life against a clock that jumps an hour per cycle: each
	// check sees only the traffic fed since the last one.
	if r.est, err = estimate.New(w, estimate.Config{HalfLife: 60}); err != nil {
		return err
	}
	if r.cluster, err = webserve.StartClusterOptions(w, placed, webserve.ClusterOptions{AccessTap: r.est}); err != nil {
		return err
	}
	// Only the L1 distance may trigger: pages of one popularity class tie, so
	// the top-10 churn signal reads 1 between any two orderings of them and
	// would follow every real re-plan with a no-op one.
	adapt := controller.AdaptOptions{Workers: 1, Detector: estimate.DetectorConfig{TriggerTopK: 2}}
	if r.adapter, err = controller.NewAdapter(r.small, placed, r.cluster, r.est, adapt); err != nil {
		return err
	}
	r.scrubber = controller.NewScrubber(r.small, r.cluster, controller.ScrubOptions{})
	r.cycle(nil, 0)
	return r.err
}

func (r *controlRun) close() {
	if r.cluster != nil {
		if err := r.cluster.Close(); err != nil {
			panic(err)
		}
	}
}

// feed shows the estimator observations page views spread over the pages
// in proportion to their frequencies in w.
func (r *controlRun) feed(w *workload.Workload) {
	r.clock += 3600
	var total float64
	for j := range w.Pages {
		total += float64(w.Pages[j].Freq)
	}
	for j := range w.Pages {
		pg := &w.Pages[j]
		for n := int(observations*float64(pg.Freq)/total + 0.5); n > 0; n-- {
			r.est.Observe(pg.Site, workload.PageID(j), r.clock)
		}
	}
}

// cycle is one operation; it leaves the first failed check in r.err.
func (r *controlRun) cycle(rec *recorder, op int) {
	r.err = nil
	fail := func(format string, args ...any) {
		if r.err == nil {
			r.err = fmt.Errorf(format, args...)
		}
	}
	root := rec.begin("control.cycle", 0, op)
	defer rec.end(root)

	// (a) One site dies; plan the repair, then the way back.
	down := workload.SiteID(op % r.env.W.NumSites())
	var rp *repair.Plan
	var err error
	rec.call("repair.compute_ms", root, op, func() {
		rp, err = repair.Compute(r.env, r.p, []workload.SiteID{down}, repair.Options{Workers: 1})
	})
	if err != nil {
		fail("repair: %v", err)
		return
	}
	var back repair.Delta
	rec.call("repair.recover_ms", root, op, func() { back = rp.Recover() })
	_, orig := rp.Original()
	switch {
	case !rp.Delta.Feasible:
		fail("repair plan for site %d is infeasible", down)
	case !orig.Equal(r.p) || len(back.Rehomed) != len(rp.Delta.Rehomed):
		fail("recovery from site %d's outage does not restore the original placement", down)
	}

	// (b) The traffic swaps between the planned frequencies and their
	// drifted version; every check must see the drift, re-plan and install.
	r.feed(r.traffic[(op+1)%2])
	var cyc *controller.Cycle
	rec.call("controller.adapt_replan_ms", root, op, func() { cyc, err = r.adapter.CheckNow(r.clock) })
	switch {
	case err != nil:
		fail("adapt: %v", err)
	case !cyc.Replanned:
		fail("adapt cycle did not re-plan (trigger=%v, noop=%v, L1=%.3f)", cyc.Decision.Trigger, cyc.Noop, cyc.Decision.L1)
	}

	// (c) Fetch and verify every replica the installed plan stores.
	var scrub *controller.ScrubCycle
	t0 := time.Now()
	rec.call("controller.scrub_cycle_ms", root, op, func() { scrub, err = r.scrubber.RunCycle() })
	r.scrubTime = append(r.scrubTime, time.Since(t0))
	w, installed := r.cluster.CurrentPlan()
	r.replicas, r.scrubbed = 0, 0
	for i := 0; i < w.NumSites(); i++ {
		installed.StoredSet(workload.SiteID(i)).ForEach(func(k int) bool {
			r.replicas++
			r.scrubbed += int64(w.ObjectSize(workload.ObjectID(k)))
			return true
		})
	}
	switch {
	case err != nil:
		fail("scrub: %v", err)
	case scrub.Checked != r.replicas || scrub.Clean != scrub.Checked || scrub.Errors != 0 || len(scrub.Corrupt) != 0:
		fail("scrub checked %d of %d replicas: %d clean, %d corrupt, %d errors", scrub.Checked, r.replicas, scrub.Clean, len(scrub.Corrupt), scrub.Errors)
	}

	if op == 0 {
		r.obj = relativeD(rp.Env, rp.Placement)
	}
}

// objective is the first operation's repaired placement (site 0 down). The
// small cluster's re-plans are left out: over 180 pages their objective
// moves by 5 % between seeds.
func (r *controlRun) objective() float64 { return r.obj }

func (r *controlRun) measure(budget time.Duration, t *tally, rec *recorder) *sample {
	// Operations keep their numbering across measurements so that the down
	// site and the traffic phase keep alternating.
	return serialLoop(budget, t, func(i int) { r.ops++; r.cycle(rec, r.ops) }, func(int) error { return r.err })
}

func (r *controlRun) layers(budget time.Duration, t *tally, rec *recorder, out map[string]float64) {
	out["controller.scrub_replicas"] = float64(r.replicas)
	out["controller.scrub_mb_per_s"] = float64(r.scrubbed) / quantile(r.scrubTime, 0.5).Seconds() / 1e6

	slice := budget / 8
	w, installed := r.cluster.CurrentPlan()
	envNow, _ := r.adapter.Current()
	out["repair.change_delta_ms"] = ms(medianOf(slice, func() { repair.ChangeDelta(r.small, envNow, installed, installed) }))
	var snap *estimate.Snapshot
	out["estimate.snapshot_ms"] = ms(medianOf(slice, func() { snap = r.est.Snapshot(r.clock) }))
	det, err := estimate.NewDetector(estimate.BaselineVector(w), estimate.DetectorConfig{})
	if err != nil {
		panic(err)
	}
	out["estimate.drift_check_ms"] = ms(medianOf(slice, func() {
		if _, err := det.Check(snap.FreqVector(w.NumPages())); err != nil {
			panic(err)
		}
	}))
	// With no new traffic since the last re-plan a check finds no drift.
	out["controller.adapt_check_ms"] = ms(medianOf(slice, func() {
		cyc, err := r.adapter.CheckNow(r.clock)
		t.expect(err == nil && !cyc.Decision.Trigger, "a check without new traffic triggered (err=%v, %+v)", err, cyc)
	}))
	out["webserve.apply_plan_ms"] = ms(medianOf(slice, func() {
		if err := r.cluster.ApplyPlan(w, installed); err != nil {
			panic(err)
		}
	}))
	out["htmlrefs.build_refdb_ms"] = ms(medianOf(slice, func() {
		if _, err := htmlrefs.BuildRefDB(w, 0, installed, r.cluster.RepoBase); err != nil {
			panic(err)
		}
	}))
	payloadLayers(2*slice, w, out)
}
