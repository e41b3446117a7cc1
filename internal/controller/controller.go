// Package controller is the live cluster's control plane: one Reconciler
// owns the plan, and three signal sources tell it what they see — the
// Supervisor (probe transitions: which sites are down), the Adapter (drift
// triggers: a re-planned base) and the Scrubber (integrity findings:
// replicas to rewrite). The paper plans once and assumes sites stay up,
// traffic stays put and replicas stay intact; these loops close the gap
// between that static plan and a production system's churn.
//
// The supervisor's probe loop over every site's /healthz endpoint feeds
// repair.Health, the per-site probe law (up → suspect → down → recovering
// → up, K-of-N damped on both edges, with limping-node demotion). Every
// transition is recorded and counted in telemetry.
package controller

import (
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/repair"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options tunes the supervisor.
type Options struct {
	// ProbeInterval is the health-check period (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default ProbeInterval).
	ProbeTimeout time.Duration
	// LatencyThreshold, when positive, arms limping-node detection: a 200
	// whose EWMA round-trip time exceeds it counts as a failed probe
	// (repair.NewHealth). Zero, the default, takes any 200 as healthy.
	LatencyThreshold time.Duration
}

func (o Options) normalize() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = o.ProbeInterval
	}
	return o
}

// Supervisor is the availability signal source: it probes every site and
// tells the reconciler which are down. A site's Down and Recovering → Up
// transitions become visible (States, WaitFor) only once the reconciler has
// committed the plan that reflects them, or the commit's error is in Err.
type Supervisor struct {
	source
	opts  Options
	probe *http.Client
	start time.Time

	mu     sync.Mutex // held across the commit: observers never see a down site without its repair
	health *repair.Health

	cProbes, cProbeFails, cRepairs, cRecoveries, cTransitions *telemetry.Counter
	cProbesShed                                               *telemetry.Counter
}

// Supervisor builds the probe loop over the reconciler's cluster.
func (r *Reconciler) Supervisor(opts Options) *Supervisor {
	n, reg := len(r.cluster.SiteBases), r.opts.Metrics
	opts = opts.normalize()
	return &Supervisor{
		source: source{rec: r, name: "supervisor"},
		opts:   opts,
		probe:  &http.Client{Timeout: opts.ProbeTimeout},
		health: repair.NewHealth(n, opts.LatencyThreshold),

		cProbes:      reg.Counter("controller.probes"),
		cProbeFails:  reg.Counter("controller.probe_failures"),
		cProbesShed:  reg.Counter("controller.probes_shed"),
		cRepairs:     reg.Counter("controller.repairs"),
		cRecoveries:  reg.Counter("controller.recoveries"),
		cTransitions: reg.Counter("controller.transitions"),
	}
}

// Start launches the probe loop. Stop ends it.
func (s *Supervisor) Start() {
	s.start = time.Now()
	s.run(s.opts.ProbeInterval, s.tick)
}

// tick probes every site once and feeds the probe law.
func (s *Supervisor) tick() error {
	n := len(s.rec.cluster.SiteBases)
	ok := make([]bool, n)
	rtt := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok[i], rtt[i] = s.probeSite(i)
		}(i)
	}
	wg.Wait()
	s.observe(ok, rtt)
	return nil
}

// probeSite performs one /healthz check and reports its round-trip time
// (meaningful only when ok).
func (s *Supervisor) probeSite(i int) (bool, time.Duration) {
	s.cProbes.Inc()
	t0 := time.Now()
	resp, err := s.probe.Get(s.rec.cluster.SiteBases[i] + "/healthz")
	if err != nil {
		s.cProbeFails.Inc()
		return false, 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	rtt := time.Since(t0)
	if resp.StatusCode == http.StatusTooManyRequests {
		// An admission shed is a live server policing its queue, not a
		// failure. Treating it as one would have the supervisor kill-and-
		// repair exactly the overloaded sites — the feedback loop that turns
		// a flash crowd into an outage.
		s.cProbesShed.Inc()
		return true, rtt
	}
	if resp.StatusCode != http.StatusOK {
		s.cProbeFails.Inc()
		return false, 0
	}
	return true, rtt
}

// observe steps the probe law on one probe round, then submits the new
// down set if any site crossed the down or recovered edge.
func (s *Supervisor) observe(ok []bool, rtt []time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Since(s.start)
	moves, demoted := s.health.Step(ok, rtt)
	s.cProbeFails.Add(int64(demoted))
	s.record(moves, now)
	if slices.ContainsFunc(moves, repair.Transition.Edge) {
		s.submit(now)
	}
}

// record journals, logs and counts transitions (mu held). Each event
// carries the site's last probe RTT and its EWMA in ms, so a demotion is
// explainable post-hoc: a down transition with a healthy-looking RTT means
// timeouts, one with a fat EWMA means limping.
func (s *Supervisor) record(moves []repair.Transition, at time.Duration) {
	for _, m := range moves {
		rtt, ewma := s.health.Latency(m.Site)
		s.cTransitions.Inc()
		s.rec.opts.Journal.Record("probe.transition",
			trace.I(trace.AttrSite, int64(m.Site)),
			trace.A("from", m.From.String()),
			trace.A("to", m.To.String()),
			trace.F("rtt_ms", rtt*1e3),
			trace.F("ewma_ms", ewma*1e3))
		s.logf("t=%v site %d: %v -> %v (rtt %.2fms ewma %.2fms)",
			at.Round(time.Millisecond), m.Site, m.From, m.To, rtt*1e3, ewma*1e3)
	}
}

// submit hands the reconciler the current down set (mu held). Sites in
// Recovering move to Up once the commit lands: with others still down the
// fresh repair no longer re-homes their pages, with none the base plan is
// back.
func (s *Supervisor) submit(now time.Duration) {
	down := s.health.Down()
	if err := s.rec.SetDown(down); err != nil {
		s.fail(err)
		return
	}
	s.record(s.health.Commit(), now)
	if len(down) == 0 {
		s.cRecoveries.Inc()
		s.rec.opts.Journal.Record("controller.recovered")
		s.logf("recovered: base placement reinstated")
		return
	}
	s.cRepairs.Inc()
	d := s.rec.Repair().Delta
	s.logf("repaired: %d sites down, %d pages re-homed, D %.4f -> %.4f (degraded %.4f)",
		len(down), len(d.Rehomed), d.DHealthy, d.DAfter, d.DBefore)
}

// States snapshots the per-site states.
func (s *Supervisor) States() []repair.SiteState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health.States()
}

// Counts returns how many repairs and recoveries the supervisor's signals
// have committed.
func (s *Supervisor) Counts() (repairs, recoveries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.cRepairs.Value()), int(s.cRecoveries.Value())
}

// WaitFor polls until pred over the state snapshot holds or the timeout
// expires; it reports whether the predicate was met. A test/CLI helper —
// the loop itself never blocks on it.
func (s *Supervisor) WaitFor(pred func([]repair.SiteState) bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if pred(s.States()) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(s.opts.ProbeInterval / 4)
	}
}
