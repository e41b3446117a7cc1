package webserve

import (
	"fmt"
	"net/http"
	"net/http/pprof"

	"repro/internal/admission"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// AccessTap receives one callback per served page view (site, page,
// cluster-uptime seconds); *estimate.Estimator is the one the adaptive
// planner plugs in. Implementations must be safe for concurrent use: every
// serving goroutine calls Observe.
type AccessTap interface {
	Observe(site workload.SiteID, page workload.PageID, t float64)
}

// ClusterOptions controls the optional observability and chaos wiring of a
// cluster.
type ClusterOptions struct {
	// Metrics serves the cluster-wide registry (Cluster.Metrics: per-site
	// request/byte/hit-miss counters, which are kept either way) as a JSON
	// snapshot at /metrics on every server, the repository and each site,
	// and mounts net/http/pprof under /debug/pprof/ beside it.
	Metrics bool
	// Faults arms deterministic fault injection: each server's handler is
	// wrapped in the plan's injector middleware (errors, resets, truncated
	// bodies, latency, outage windows). Nil serves a healthy cluster.
	Faults *faults.Plan
	// Trace, when non-nil, arms end-to-end request tracing: every server
	// emits a "serve" span for each request carrying an X-Repl-Trace header,
	// parented under the client's span, into this buffer. Clients built via
	// Cluster.Client share the buffer (and its ID stream) automatically.
	Trace *trace.Buffer
	// TraceSeed seeds the deterministic trace/span-ID stream.
	TraceSeed uint64
	// Journal, when non-nil, is the control-plane flight recorder, served at
	// /debug/journal on every server (JSONL; ?format=text for readable
	// lines).
	Journal *trace.Journal
	// AccessTap, when non-nil, receives one Observe per served page view
	// from every site's serving path — the feed the adaptive planner's
	// frequency estimator runs on.
	AccessTap AccessTap
	// Admission, when non-nil, arms overload protection on every server:
	// each request passes a bounded deadline-aware admission queue (CoDel
	// sojourn shedding, AIMD concurrency limits) ahead of the fault layer,
	// sheds answer 429 with a seeded-jitter Retry-After, and sustained
	// shed pressure walks the sites into brownout page serving. The zero
	// Config is a valid production default; nil leaves the cluster
	// unprotected (the pre-admission behaviour).
	Admission *admission.Config
}

// setTelemetry hooks the repository's counters into the registry.
func (r *Repository) setTelemetry(reg *telemetry.Registry) {
	r.cRequests = reg.Counter("repo.mo_requests")
	r.cPages = reg.Counter("repo.page_requests")
	r.cBytes = reg.Counter("repo.bytes")
	r.cMisses = reg.Counter("repo.misses")
	r.cWriteErrs = reg.Counter("repo.write_errors")
	// Shared across every server: a disconnected client whose body write
	// was abandoned, wherever it was being served from.
	r.cAborted = reg.Counter("server.aborted_writes")
}

// siteCounterPrefix names the registry namespace of one site's counters.
func siteCounterPrefix(site int) string {
	return fmt.Sprintf("site.%d.", site)
}

// setTelemetry hooks the site's counters into the registry.
func (s *LocalServer) setTelemetry(reg *telemetry.Registry) {
	prefix := siteCounterPrefix(int(s.site))
	s.cPages = reg.Counter(prefix + "page_requests")
	s.cMOs = reg.Counter(prefix + "mo_requests")
	s.cBytes = reg.Counter(prefix + "bytes")
	s.cMisses = reg.Counter(prefix + "misses")
	s.cWriteErrs = reg.Counter(prefix + "write_errors")
	s.cAborted = reg.Counter("server.aborted_writes")
	s.cBrownoutPages = reg.Counter(prefix + "brownout_pages")
	s.cBrownoutDropped = reg.Counter(prefix + "brownout_dropped_refs")
}

// wrapMux wraps a handler with the optional /metrics, /debug/journal and
// /debug/pprof/ routes. With none enabled the bare handler is returned — no
// mux on the serving path.
func (c *Cluster) wrapMux(h http.Handler, opts ClusterOptions) http.Handler {
	if !opts.Metrics && c.Journal == nil {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	if c.Journal != nil {
		mux.Handle("/debug/journal", trace.JournalHandler(c.Journal))
	}
	if opts.Metrics {
		mux.Handle("/metrics", telemetry.Handler(c.Metrics))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
