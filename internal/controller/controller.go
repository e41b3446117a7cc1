// Package controller is the live cluster's control plane: one Reconciler
// owns the plan, and three signal sources tell it what they see — the
// Supervisor (probe transitions: which sites are down), the Adapter (drift
// triggers: a re-planned base) and the Scrubber (integrity findings:
// replicas to rewrite). The paper plans once and assumes sites stay up,
// traffic stays put and replicas stay intact; these loops close the gap
// between that static plan and a production system's churn.
//
// The supervisor's probe loop over every site's /healthz endpoint drives a
// per-site state machine (up → suspect → down → recovering → up). Detection
// is K-of-N: a site must fail failThreshold consecutive probes before it is
// declared down (one lost probe makes it suspect, not dead), and must
// answer okThreshold consecutive probes before a recovery is attempted —
// both thresholds damp flapping. Every transition is recorded and counted
// in telemetry.
package controller

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/repair"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SiteState is one site's position in the supervisor's state machine.
type SiteState int

const (
	// Up: the site answers probes and serves its (possibly repaired) pages.
	Up SiteState = iota
	// Suspect: at least one probe failed, fewer than failThreshold in a row.
	Suspect
	// Down: failThreshold consecutive probes failed; the site's pages are
	// re-homed by the active repair plan.
	Down
	// Recovering: a down site answered okThreshold consecutive probes; the
	// reconciler is committing the plan without it in the down set.
	Recovering
)

func (s SiteState) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("SiteState(%d)", int(s))
	}
}

// Options tunes the supervisor.
type Options struct {
	// ProbeInterval is the health-check period (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (default ProbeInterval).
	ProbeTimeout time.Duration
	// LatencyThreshold, when positive, arms limping-node detection: a probe
	// that answers 200 but whose EWMA round-trip time exceeds the threshold
	// counts as a *failed* probe, so a site that is up-but-crawling walks
	// the same suspect → down path as a dead one instead of hiding behind
	// its 200s. Zero (the default) keeps the previous any-200-is-healthy
	// behaviour.
	LatencyThreshold time.Duration
}

// The supervisor's state-machine parameters.
const (
	// failThreshold is K: consecutive failed probes before a site is
	// declared down.
	failThreshold = 3
	// okThreshold is the consecutive successful probes a down site must
	// answer before recovery.
	okThreshold = 2
	// latencyAlpha is the EWMA smoothing factor for the per-site
	// probe-latency estimate. Higher values react faster but flap more on
	// one slow probe; the EWMA exists precisely so a single GC pause does
	// not condemn a healthy site.
	latencyAlpha = 0.3
)

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

	mu      sync.Mutex // held across the commit: observers never see a down site without its repair
	states  []SiteState
	fails   []int
	oks     []int
	ewma    []float64 // smoothed probe RTT per site, seconds; 0 = no sample yet
	lastRTT []float64 // last raw probe RTT per site, seconds

	cProbes, cProbeFails, cRepairs, cRecoveries, cTransitions *telemetry.Counter
	cProbesShed                                               *telemetry.Counter
}

// Supervisor builds the probe loop over the reconciler's cluster.
func (r *Reconciler) Supervisor(opts Options) *Supervisor {
	n, reg := len(r.cluster.SiteBases), r.opts.Metrics
	opts = opts.normalize()
	return &Supervisor{
		source:  source{rec: r, name: "supervisor"},
		opts:    opts,
		probe:   &http.Client{Timeout: opts.ProbeTimeout},
		states:  make([]SiteState, n),
		fails:   make([]int, n),
		oks:     make([]int, n),
		ewma:    make([]float64, n),
		lastRTT: make([]float64, n),

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

// tick probes every site once and feeds the state machine.
func (s *Supervisor) tick() error {
	n := len(s.states)
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
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, s.rec.cluster.SiteBases[i]+"/healthz", nil)
	if err != nil {
		s.cProbeFails.Inc()
		return false, 0
	}
	t0 := time.Now()
	resp, err := s.probe.Do(req)
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

// observe advances every site's state machine on one probe round, then
// submits the new down set if any site crossed the down or recovered edge.
// A 200 whose EWMA-smoothed RTT exceeds LatencyThreshold is demoted to a
// failed probe — the limping-node signal: a site can answer health checks
// forever while serving data at a crawl, and before this signal the only
// way it left Up was a hard timeout.
func (s *Supervisor) observe(ok []bool, rtt []time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Since(s.start)
	edge := false
	for i := range ok {
		if ok[i] {
			r := rtt[i].Seconds()
			s.lastRTT[i] = r
			if s.ewma[i] == 0 {
				s.ewma[i] = r
			} else {
				s.ewma[i] = latencyAlpha*r + (1-latencyAlpha)*s.ewma[i]
			}
			if s.opts.LatencyThreshold > 0 && s.ewma[i] > s.opts.LatencyThreshold.Seconds() {
				ok[i] = false // healthy answer, unhealthy latency: limping
				s.cProbeFails.Inc()
			}
		}
		st := s.states[i]
		switch {
		case ok[i]:
			s.fails[i] = 0
			switch st {
			case Suspect:
				s.setState(i, Up, now)
			case Down:
				s.oks[i]++
				if s.oks[i] >= okThreshold {
					s.setState(i, Recovering, now)
					edge = true
				}
			}
		default:
			s.oks[i] = 0
			switch st {
			case Up:
				s.fails[i] = 1
				s.setState(i, Suspect, now)
			case Suspect:
				s.fails[i]++
				if s.fails[i] >= failThreshold {
					s.setState(i, Down, now)
					edge = true
				}
			case Recovering:
				// Flapped during recovery: back to down.
				s.setState(i, Down, now)
			}
		}
	}
	if edge {
		s.submit(now)
	}
}

// setState records a transition (mu held). The journal event carries the
// site's latency picture (last raw probe RTT and its EWMA, milliseconds) so
// a limping-driven demotion is explainable post-hoc: a down transition with
// a healthy-looking RTT means timeouts, one with a fat EWMA means limping.
func (s *Supervisor) setState(i int, to SiteState, at time.Duration) {
	from := s.states[i]
	if from == to {
		return
	}
	s.states[i] = to
	s.cTransitions.Inc()
	s.rec.opts.Journal.Record("probe.transition",
		trace.I(trace.AttrSite, int64(i)),
		trace.A("from", from.String()),
		trace.A("to", to.String()),
		trace.F("rtt_ms", s.lastRTT[i]*1e3),
		trace.F("ewma_ms", s.ewma[i]*1e3))
	s.logf("t=%v site %d: %v -> %v (rtt %.2fms ewma %.2fms)",
		at.Round(time.Millisecond), i, from, to, s.lastRTT[i]*1e3, s.ewma[i]*1e3)
}

// submit hands the reconciler the current down set (mu held). Sites in
// Recovering move to Up once the commit lands: with others still down the
// fresh repair no longer re-homes their pages, with none the base plan is
// back.
func (s *Supervisor) submit(now time.Duration) {
	var down []workload.SiteID
	for i, st := range s.states {
		if st == Down {
			down = append(down, workload.SiteID(i))
		}
	}
	if err := s.rec.SetDown(down); err != nil {
		s.fail(err)
		return
	}
	for i, st := range s.states {
		if st == Recovering {
			s.setState(i, Up, now)
		}
	}
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
func (s *Supervisor) States() []SiteState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SiteState(nil), s.states...)
}

// CurrentPlan returns the reconciler's active repair plan, nil while healthy.
func (s *Supervisor) CurrentPlan() *repair.Plan { return s.rec.Repair() }

// Counts returns how many repairs and recoveries the supervisor's signals
// have committed.
func (s *Supervisor) Counts() (repairs, recoveries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.cRepairs.Value()), int(s.cRecoveries.Value())
}

// Latency returns site i's last raw probe RTT and its EWMA estimate
// (zero until the first successful probe).
func (s *Supervisor) Latency(i int) (last, ewma time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.lastRTT[i] * float64(time.Second)),
		time.Duration(s.ewma[i] * float64(time.Second))
}

// WaitFor polls until pred over the state snapshot holds or the timeout
// expires; it reports whether the predicate was met. A test/CLI helper —
// the loop itself never blocks on it.
func (s *Supervisor) WaitFor(pred func([]SiteState) bool, timeout time.Duration) bool {
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
