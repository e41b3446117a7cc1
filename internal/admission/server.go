package admission

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Stream label for the Retry-After jitter (Split-derived from Config.Seed;
// disjoint from every other consumer's label range).
const retryAfterStream uint64 = 801

// Metrics is the admission layer's counter set; all fields are
// nil-tolerant, so the zero Metrics is a no-op sink.
type Metrics struct {
	Admitted    *telemetry.Counter // requests that reached the handler
	ShedSojourn *telemetry.Counter // 429s from the CoDel sojourn law
	ShedQueue   *telemetry.Counter // 429s from the queue bound
	ShedDead    *telemetry.Counter // 429s for deadline-doomed work
	Aborts      *telemetry.Counter // clients that vanished while queued

	// Journal, when non-nil, receives the admission state transitions:
	// "admission.saturated" / "admission.recovered" when the CoDel law
	// enters/leaves shedding, "admission.brownout" on tier changes. Steady
	// states are counters' business — the journal records the edges.
	Journal *trace.Journal
	// Site labels this server's journal events ("repo" or a site index).
	Site string
}

// MetricsFor registers the admission counters under prefix (e.g.
// "admission.site.0.") in the registry. A nil registry yields no-op
// counters.
func MetricsFor(reg *telemetry.Registry, prefix string) Metrics {
	return Metrics{
		Admitted:    reg.Counter(prefix + "admitted"),
		ShedSojourn: reg.Counter(prefix + "shed_by.sojourn"),
		ShedQueue:   reg.Counter(prefix + "shed_by.queue"),
		ShedDead:    reg.Counter(prefix + "shed_by.deadline"),
		Aborts:      reg.Counter(prefix + "queue_aborts"),
	}
}

// count books one verdict.
func (m Metrics) count(v Verdict) {
	switch v {
	case Admitted:
		m.Admitted.Inc()
	case ShedSojourn:
		m.ShedSojourn.Inc()
	case ShedQueue:
		m.ShedQueue.Inc()
	case ShedDeadline:
		m.ShedDead.Inc()
	case Aborted:
		m.Aborts.Inc()
	}
}

// Server is one HTTP server's admission layer: an Endpoint per request
// class (pages, objects, everything else — separate queues so a page
// stampede cannot starve object fetches), the brownout controller, and
// the seeded Retry-After jitter stream.
type Server struct {
	clock func() time.Duration
	page  *Endpoint
	mo    *Endpoint
	other *Endpoint
	brown *Brownout
	m     Metrics

	jmu    sync.Mutex
	jitter *rng.Stream

	smu       sync.Mutex
	saturated bool // last journaled CoDel state, per-server
}

// NewServer builds a server admission layer. clock reports elapsed time on
// the server's monotone timeline (e.g. since the cluster was armed); nil
// pins it to a process-start-relative wall clock.
func NewServer(cfg Config, clock func() time.Duration, m Metrics) *Server {
	if clock == nil {
		//repllint:allow determinism — nil-clock fallback for the live server: a process-relative wall timeline; the study injects a virtual clock
		start := time.Now()
		//repllint:allow determinism — the same fallback timeline, read per request
		clock = func() time.Duration { return time.Since(start) }
	}
	return &Server{
		clock:  clock,
		page:   new(Endpoint),
		mo:     new(Endpoint),
		other:  new(Endpoint),
		brown:  &Brownout{},
		m:      m,
		jitter: rng.New(cfg.Seed).Split(retryAfterStream),
	}
}

// Tier returns the current brownout tier (0 = full fidelity).
func (s *Server) Tier() int { return s.brown.Tier() }

// Endpoint returns the admission queue for an endpoint class name ("page",
// "mo", "other") — diagnostics and tests.
func (s *Server) Endpoint(class string) *Endpoint {
	switch class {
	case "page":
		return s.page
	case "mo":
		return s.mo
	default:
		return s.other
	}
}

// endpointFor classifies a request path. String prefixes, not the htmlrefs
// parsers: admission runs in front of everything (health probes included)
// and must not import the content layer.
func (s *Server) endpointFor(path string) *Endpoint {
	switch {
	case strings.HasPrefix(path, "/page/"):
		return s.page
	case strings.HasPrefix(path, "/mo/"):
		return s.mo
	default:
		return s.other
	}
}

// RetryHint draws one shed's jittered retry hint from s: the nominal
// retryAfter plus Uniform(0, retryAfter/2), so a fleet of budgeted clients
// does not return in lockstep. The caller serializes s.
func RetryHint(s *rng.Stream) time.Duration {
	return retryAfter + time.Duration(s.Uniform(0, float64(retryAfter/2)))
}

// retryAfter draws the server's next retry hint from its jitter stream.
func (s *Server) retryAfter() time.Duration {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return RetryHint(s.jitter)
}

// Middleware wraps next with the admission gate: every request passes
// through its endpoint class's bounded queue; sheds answer 429 with the
// jittered Retry-After hint; brownout pressure is fed from every decision.
func (s *Server) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		ep := s.endpointFor(req.URL.Path)
		deadline, _ := ParseDeadline(req.Header.Get(DeadlineHeader))
		v, release := ep.Admit(req.Context(), s.clock, deadline)
		s.m.count(v)
		now := s.clock()
		s.noteState(now)
		s.noteBrownout(v.Shed(), now)
		switch {
		case v == Admitted:
			defer release()
			next.ServeHTTP(rw, req)
		case v == Aborted:
			// The client is gone; no response can reach it. Drop the
			// connection the way net/http prescribes.
			panic(http.ErrAbortHandler)
		default:
			ra := s.retryAfter()
			secs := int((ra + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			rw.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
			rw.Header().Set(RetryAfterMillisHeader, fmt.Sprintf("%d", ra.Milliseconds()))
			http.Error(rw, "overloaded: request shed ("+v.String()+")", http.StatusTooManyRequests)
		}
	})
}

// noteState journals CoDel saturation edges: entering the shedding state
// on any endpoint emits "admission.saturated", leaving it on all of them
// "admission.recovered".
func (s *Server) noteState(now time.Duration) {
	dropping := false
	for _, ep := range []*Endpoint{s.page, s.mo, s.other} {
		ep.mu.Lock()
		dropping = dropping || ep.gate.codel.dropping
		ep.mu.Unlock()
	}
	s.smu.Lock()
	changed := dropping != s.saturated
	s.saturated = dropping
	s.smu.Unlock()
	if !changed {
		return
	}
	fields := []trace.Attr{trace.A(trace.AttrSite, s.m.Site), trace.I("elapsed_ms", now.Milliseconds())}
	if dropping {
		s.m.Journal.Record("admission.saturated", fields...)
	} else {
		s.m.Journal.Record("admission.recovered", fields...)
	}
}

// noteBrownout feeds one decision into the brownout controller and
// journals tier changes.
func (s *Server) noteBrownout(shed bool, now time.Duration) {
	tier, changed := s.brown.Observe(shed, now)
	if !changed {
		return
	}
	s.m.Journal.Record("admission.brownout",
		trace.A(trace.AttrSite, s.m.Site),
		trace.I("tier", int64(tier)),
		trace.I("elapsed_ms", now.Milliseconds()))
}
