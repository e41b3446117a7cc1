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
//
// Each source has one synchronous step — Supervisor.Probe,
// Adapter.CheckNow, Scrubber.RunCycle — and Start, which runs that step
// once per fixed period until Stop.
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
	// LatencyThreshold, when positive, arms limping-node detection: a 200
	// whose EWMA round-trip time exceeds it counts as a failed probe
	// (repair.NewHealth). Zero, the default, takes any 200 as healthy.
	LatencyThreshold time.Duration
}

// Supervisor is the availability signal source: it probes every site and
// tells the reconciler which are down. A site's Down and Recovering → Up
// transitions become visible in States only once the reconciler has
// committed the plan that reflects them, or the commit has failed.
type Supervisor struct {
	source
	probe *http.Client
	start time.Time

	mu     sync.Mutex // held across the commit: observers never see a down site without its repair
	health *repair.Health

	cProbes, cProbeFails, cRepairs, cRecoveries, cTransitions *telemetry.Counter
	cProbesShed                                               *telemetry.Counter
}

// Supervisor builds the probe loop over the reconciler's cluster. Probe
// steps it once; Start runs it every 250 ms (probePeriod).
func (r *Reconciler) Supervisor(opts Options) *Supervisor {
	n, reg := len(r.cluster.SiteBases), r.opts.Metrics
	s := &Supervisor{
		source: source{rec: r, name: "supervisor", period: probePeriod},
		probe:  &http.Client{Timeout: probePeriod},
		start:  time.Now(),
		health: repair.NewHealth(n, opts.LatencyThreshold),

		cProbes:      reg.Counter("controller.probes"),
		cProbeFails:  reg.Counter("controller.probe_failures"),
		cProbesShed:  reg.Counter("controller.probes_shed"),
		cRepairs:     reg.Counter("controller.repairs"),
		cRecoveries:  reg.Counter("controller.recoveries"),
		cTransitions: reg.Counter("controller.transitions"),
	}
	s.step = s.Probe
	return s
}

// Probe is one probe round: it probes every site once, steps the probe law
// on the answers, and commits the new down set if any site crossed the
// down or recovered edge. The error is that commit's.
func (s *Supervisor) Probe() error {
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
	return s.observe(ok, rtt)
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
func (s *Supervisor) observe(ok []bool, rtt []time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Since(s.start)
	moves, demoted := s.health.Step(ok, rtt)
	s.cProbeFails.Add(int64(demoted))
	s.record(moves, now)
	if slices.ContainsFunc(moves, repair.Transition.Edge) {
		return s.submit(now)
	}
	return nil
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
func (s *Supervisor) submit(now time.Duration) error {
	down := s.health.Down()
	if err := s.rec.SetDown(down); err != nil {
		return err
	}
	s.record(s.health.Commit(), now)
	if len(down) == 0 {
		s.cRecoveries.Inc()
		s.rec.opts.Journal.Record("controller.recovered")
		s.logf("recovered: base placement reinstated")
		return nil
	}
	s.cRepairs.Inc()
	d := s.rec.Repair().Delta
	s.logf("repaired: %d sites down, %d pages re-homed, D %.4f -> %.4f (degraded %.4f)",
		len(down), len(d.Rehomed), d.DHealthy, d.DAfter, d.DBefore)
	return nil
}

// States snapshots the per-site states.
func (s *Supervisor) States() []repair.SiteState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health.States()
}
