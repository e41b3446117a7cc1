package webserve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/faults"
	"repro/internal/htmlrefs"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Repository is the central multimedia repository's HTTP handler: it serves
// every object at /mo/<id> and — as the system's authoritative always-on
// root — every page's master copy at /page/<id>, rendered with all
// references pointing back at the repository itself. Clients normally never
// ask it for pages; the resilient client does exactly that when a page's
// hosting site is down, completing the view via Eq. 5's remote chain.
type Repository struct {
	w *workload.Workload

	mu   sync.RWMutex
	base string // external base URL, set once serving

	// The only tallies; nil (no-op) on a handler built outside a cluster.
	cRequests, cPages, cBytes, cMisses, cWriteErrs *telemetry.Counter
	cAborted                                       *telemetry.Counter
}

// NewRepository builds the repository handler.
func NewRepository(w *workload.Workload) *Repository {
	return &Repository{w: w}
}

// SetBase records the repository's external base URL, used when rendering
// master-copy pages. Must be called before serving.
func (r *Repository) SetBase(base string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.base = base
}

// Base returns the configured base URL.
func (r *Repository) Base() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.base
}

// ServeHTTP implements http.Handler.
func (r *Repository) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if k, ok := htmlrefs.ParseMOPath(req.URL.Path); ok && int(k) < r.w.NumObjects() {
		r.cRequests.Inc()
		r.cBytes.Add(int64(r.w.ObjectSize(k)))
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.Header().Set("Content-Length", strconv.FormatInt(int64(r.w.ObjectSize(k)), 10))
		if err := writeObject(req.Context(), rw, r.w, RepoSource, k); err != nil {
			countWriteErr(req, r.cAborted, r.cWriteErrs)
		}
		return
	}
	if j, ok := htmlrefs.ParsePagePath(req.URL.Path); ok && int(j) < r.w.NumPages() {
		// The master copy: every reference targets the repository, so a
		// degraded client completes the whole view against the root.
		doc := htmlrefs.RenderPage(r.w, j, r.Base())
		r.cPages.Inc()
		r.cBytes.Add(int64(len(doc)))
		rw.Header().Set("Content-Type", "text/html; charset=utf-8")
		rw.Header().Set("Content-Length", strconv.Itoa(len(doc)))
		if _, err := rw.Write(doc); err != nil {
			countWriteErr(req, r.cAborted, r.cWriteErrs)
		}
		return
	}
	r.cMisses.Inc()
	http.NotFound(rw, req)
}

// writeObject streams object k as served by src to dst straight out of its
// pooled chunk, checking the request context between writes: a client that
// disconnected mid-body stops consuming server work instead of having the
// full object pushed into a dead connection.
func writeObject(ctx context.Context, dst io.Writer, w *workload.Workload, src int, k workload.ObjectID) error {
	r := newObjectReader(w, src, k)
	defer chunkPool.Put(r.buf)
	for r.off < r.total {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := dst.Write(r.next())
		r.off += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// countWriteErr classifies a failed body write: a done request context is
// a client that went away (aborted), anything else a transport failure.
func countWriteErr(req *http.Request, aborted, writeErrs *telemetry.Counter) {
	if req.Context().Err() != nil {
		aborted.Inc()
		return
	}
	writeErrs.Inc()
}

// LocalServer is one site's HTTP handler: it serves its hosted pages at
// /page/<id> — rewriting MO URLs on the fly per its reference database —
// and its replicated objects at /mo/<id>. Objects it does not store are
// 404s: the placement is authoritative, exactly as a misrouted client would
// experience in the paper's system. Every served page view is reported to
// the access tap, which feeds frequency estimation (Section 2's "statistics
// collected").
type LocalServer struct {
	w        *workload.Workload
	site     workload.SiteID
	db       *htmlrefs.RefDB
	repoBase string

	mu        sync.RWMutex
	placement *model.Placement
	base      string // this server's external base URL, set once serving

	// The only tallies; nil (no-op) on a handler built outside a cluster.
	cPages, cMOs, cBytes, cMisses, cWriteErrs *telemetry.Counter
	cAborted                                  *telemetry.Counter
	cBrownoutPages, cBrownoutDropped          *telemetry.Counter

	// Access-log tap; nil unless ClusterOptions.AccessTap was set, and set
	// before serving (ServeHTTP reads the fields lock-free). tapClock
	// reports cluster uptime in seconds for the tap's timestamps.
	tap      AccessTap
	tapClock func() float64

	// adm is the server's admission layer; nil unless the cluster armed
	// ClusterOptions.Admission. Its brownout tier governs page fidelity.
	adm *admission.Server
}

// NewLocalServer builds the site's handler from a placement. repoBase is
// the repository's external base URL used in stored documents.
func NewLocalServer(w *workload.Workload, site workload.SiteID, p *model.Placement, repoBase string) (*LocalServer, error) {
	db, err := htmlrefs.BuildRefDB(w, site, p, repoBase)
	if err != nil {
		return nil, err
	}
	return &LocalServer{w: w, site: site, db: db, repoBase: repoBase, placement: p}, nil
}

// SetBase records the server's external base URL (e.g. http://127.0.0.1:
// 8081) used when rewriting local references. Must be called before
// serving.
func (s *LocalServer) SetBase(base string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base = base
}

// Base returns the configured base URL.
func (s *LocalServer) Base() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base
}

// Rehome adopts a plan — a refresh, a repair or a recovery: the reference
// database is rebuilt against w2's page assignment for this site — gaining
// or losing pages relative to construction time — and the plan's placement
// governs the replica set from here on. w2 must index objects and sites
// identically to the construction workload, which repair.Compute's
// re-homed clones do; the server's own workload pointer is deliberately
// NOT swapped (ServeHTTP reads it lock-free, and only its object table —
// identical across the clones — matters there).
func (s *LocalServer) Rehome(w2 *workload.Workload, p *model.Placement) error {
	if err := s.db.Rebuild(w2, p, s.repoBase); err != nil {
		return err
	}
	s.mu.Lock()
	s.placement = p
	s.mu.Unlock()
	return nil
}

// Site returns the server's site ID.
func (s *LocalServer) Site() workload.SiteID { return s.site }

// ServeHTTP implements http.Handler.
func (s *LocalServer) ServeHTTP(rw http.ResponseWriter, req *http.Request) {
	if j, ok := htmlrefs.ParsePagePath(req.URL.Path); ok {
		// Brownout: under sustained shed pressure the admission layer's
		// tier degrades page fidelity — lowest-weight optional references
		// dropped first — before the server refuses pages outright.
		tier := 0
		if s.adm != nil {
			tier = s.adm.Tier()
		}
		doc, dropped, ok := s.db.ServeTier(j, s.Base(), tier)
		if !ok {
			s.cMisses.Inc()
			http.NotFound(rw, req)
			return
		}
		s.cPages.Inc()
		if s.tap != nil {
			s.tap.Observe(s.site, j, s.tapClock())
		}
		s.cBytes.Add(int64(len(doc)))
		if tier > 0 {
			rw.Header().Set(admission.BrownoutHeader, strconv.Itoa(tier))
			s.cBrownoutPages.Inc()
			s.cBrownoutDropped.Add(int64(dropped))
		}
		rw.Header().Set("Content-Type", "text/html; charset=utf-8")
		rw.Header().Set("Content-Length", strconv.Itoa(len(doc)))
		if _, err := rw.Write(doc); err != nil {
			countWriteErr(req, s.cAborted, s.cWriteErrs)
		}
		return
	}
	if k, ok := htmlrefs.ParseMOPath(req.URL.Path); ok {
		if int(k) >= s.w.NumObjects() {
			s.cMisses.Inc()
			http.NotFound(rw, req)
			return
		}
		s.mu.RLock()
		stored := s.placement.IsStored(s.site, k)
		s.mu.RUnlock()
		if !stored {
			// A miss here means a client asked for an unreplicated object —
			// the placement is authoritative, so this counts as a hit-miss
			// event, not a routing bug.
			s.cMisses.Inc()
			http.NotFound(rw, req)
			return
		}
		s.cMOs.Inc()
		s.cBytes.Add(int64(s.w.ObjectSize(k)))
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.Header().Set("Content-Length", strconv.FormatInt(int64(s.w.ObjectSize(k)), 10))
		if err := writeObject(req.Context(), rw, s.w, int(s.site), k); err != nil {
			countWriteErr(req, s.cAborted, s.cWriteErrs)
		}
		return
	}
	s.cMisses.Inc()
	http.NotFound(rw, req)
}

// Cluster is a running deployment: the repository plus one HTTP server per
// site, all on loopback listeners. The cluster supports chaos drills
// (ClusterOptions.Faults, KillSite/RestartSite) and shuts down gracefully:
// Close drains in-flight responses under a deadline instead of cutting
// connections mid-body.
type Cluster struct {
	W         *workload.Workload
	Repo      *Repository
	RepoBase  string
	Sites     []*LocalServer
	SiteBases []string

	// Metrics is the cluster-wide registry every server, admission layer,
	// fault injector and cluster client counts into. ClusterOptions.Metrics
	// decides only whether /metrics exports it.
	Metrics *telemetry.Registry

	// Tracer emits server-side spans into ClusterOptions.Trace; nil unless
	// tracing was armed. Cluster.Client derives its client tracer from it so
	// client and server spans share one ID stream and epoch.
	Tracer *trace.Tracer
	// Journal is the flight recorder served at /debug/journal; nil unless
	// ClusterOptions.Journal was set.
	Journal *trace.Journal

	// RepoAdm / SiteAdms are the per-server admission layers; nil unless
	// ClusterOptions.Admission armed overload protection.
	RepoAdm  *admission.Server
	SiteAdms []*admission.Server

	start time.Time

	mu           sync.Mutex
	repoSrv      *http.Server
	siteSrvs     []*http.Server // nil entries are killed sites
	siteHandlers []http.Handler // wrapped handlers, reused on restart
	siteAddrs    []string       // last bound address per site
	siteInjs     []*faults.Injector
	curW         *workload.Workload // workload of the last applied plan; routes pages
	curP         *model.Placement   // the live placement
}

// StartCluster listens on ephemeral loopback ports for the repository and
// every site, serving under the given placement with no observability
// extras. Call Close when done.
func StartCluster(w *workload.Workload, p *model.Placement) (*Cluster, error) {
	return StartClusterOptions(w, p, ClusterOptions{})
}

// StartClusterOptions is StartCluster with the observability and chaos
// wiring of ClusterOptions: a shared metrics registry served at /metrics on
// every server, optional pprof endpoints, and optional deterministic fault
// injection. Every server additionally answers /healthz (200 "ok"), routed
// through the fault middleware so probes observe injected outages.
func StartClusterOptions(w *workload.Workload, p *model.Placement, opts ClusterOptions) (*Cluster, error) {
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	c := &Cluster{W: w, Metrics: telemetry.NewRegistry(), start: time.Now(), curW: w, curP: p}
	telemetry.RegisterBuildInfo(c.Metrics)
	c.Tracer = trace.NewTracer(opts.Trace, opts.TraceSeed, trace.KindServer)
	c.Journal = opts.Journal
	// The outage-window clock: elapsed time since the cluster (and with it
	// the fault plan) was armed.
	clock := func() time.Duration { return time.Since(c.start) }

	repo := NewRepository(w)
	repo.setTelemetry(c.Metrics)
	c.RepoAdm = c.newAdmission(opts, 0, "repo", clock)
	repoHandler := c.buildHandler(repo, opts, opts.Faults.RepoInjector(), "faults.repo.", "repo", clock, c.RepoAdm)
	repoBase, repoSrv, err := serve(repoHandler)
	if err != nil {
		return nil, err
	}
	c.Repo = repo
	c.RepoBase = repoBase
	c.repoSrv = repoSrv
	repo.SetBase(repoBase)

	for i := 0; i < w.NumSites(); i++ {
		ls, err := NewLocalServer(w, workload.SiteID(i), p, repoBase)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		ls.setTelemetry(c.Metrics)
		ls.tap, ls.tapClock = opts.AccessTap, func() float64 { return time.Since(c.start).Seconds() }
		adm := c.newAdmission(opts, uint64(i)+1, strconv.Itoa(i), clock)
		ls.adm = adm
		c.SiteAdms = append(c.SiteAdms, adm)
		inj := opts.Faults.SiteInjector(i)
		h := c.buildHandler(ls, opts, inj, fmt.Sprintf("faults.site.%d.", i), strconv.Itoa(i), clock, adm)
		base, srv, err := serve(h)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		ls.SetBase(base)
		c.Sites = append(c.Sites, ls)
		c.SiteBases = append(c.SiteBases, base)
		c.siteSrvs = append(c.siteSrvs, srv)
		c.siteHandlers = append(c.siteHandlers, h)
		c.siteAddrs = append(c.siteAddrs, addrOf(base))
		c.siteInjs = append(c.siteInjs, inj)
	}
	return c, nil
}

// buildHandler assembles one server's handler chain, innermost first:
// application → /healthz → fault injection → admission → trace →
// /metrics + pprof + journal. Health probes pass through the fault
// middleware (a dying site must look like one), while the observability
// endpoints stay outside it — chaos is precisely when /metrics must keep
// answering. Admission wraps the fault layer so an admitted request holds
// its concurrency slot across fault-injected latency: a limping server's
// queue backs up and the CoDel law starts shedding, exactly the overload
// signal the layer exists to act on. (Health probes are therefore
// sheddable too; the controller treats 429 as healthy-but-shedding.) The
// trace middleware wraps everything so both injected faults and admission
// sheds are visible in the serve spans.
func (c *Cluster) buildHandler(app http.Handler, opts ClusterOptions, inj *faults.Injector, prefix, siteName string, clock func() time.Duration, adm *admission.Server) http.Handler {
	h := withHealthz(app)
	if inj != nil && !inj.Spec().Quiet() {
		m := faults.MetricsFor(c.Metrics, prefix)
		m.Journal, m.Site = c.Journal, siteName
		h = faults.Middleware(inj, clock, m, h)
	}
	if adm != nil {
		h = adm.Middleware(h)
	}
	h = traceMiddleware(c.Tracer, siteName, h)
	return c.wrapMux(h, opts)
}

// newAdmission builds one server's admission layer, or nil when overload
// protection is not armed. seedOffset keeps each server's Retry-After
// jitter stream disjoint (0 = repository, i+1 = site i).
func (c *Cluster) newAdmission(opts ClusterOptions, seedOffset uint64, siteName string, clock func() time.Duration) *admission.Server {
	if opts.Admission == nil {
		return nil
	}
	cfg := *opts.Admission
	cfg.Seed += seedOffset
	m := admission.MetricsFor(c.Metrics, "admission."+siteName+".")
	m.Journal, m.Site = c.Journal, siteName
	return admission.NewServer(cfg, clock, m)
}

// traceMiddleware emits one "serve" span per request that carries the
// X-Repl-Trace header, parented under the propagated client span.
// Requests without the header (health probes, untraced clients) pass
// through untouched. Fault-injected aborts (panic with ErrAbortHandler)
// still end the span — marked reason=abort — before re-panicking.
func traceMiddleware(tr *trace.Tracer, siteName string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		tid, sid, ok := trace.ParseHeader(req.Header.Get(trace.Header))
		if !ok {
			h.ServeHTTP(rw, req)
			return
		}
		sp := tr.StartRemote(trace.SpanServe, tid, sid)
		sp.SetAttr(trace.A(trace.AttrSite, siteName), trace.A("path", req.URL.Path))
		sw := &statusCapture{ResponseWriter: rw, code: http.StatusOK}
		defer func() {
			if r := recover(); r != nil {
				sp.SetAttr(trace.A(trace.AttrReason, "abort"))
				sp.End()
				panic(r)
			}
			sp.SetAttr(trace.I(trace.AttrStatus, int64(sw.code)))
			sp.End()
		}()
		h.ServeHTTP(sw, req)
	})
}

// statusCapture records the response status for the serve span.
type statusCapture struct {
	http.ResponseWriter
	code int
}

func (s *statusCapture) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// withHealthz answers /healthz ahead of the application handler.
func withHealthz(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" {
			rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = io.WriteString(rw, "ok\n")
			return
		}
		h.ServeHTTP(rw, req)
	})
}

// serve starts an http.Server on an ephemeral loopback port and returns its
// base URL and the server for lifecycle control.
func serve(h http.Handler) (base string, srv *http.Server, err error) {
	ln, err := listenLoopback()
	if err != nil {
		return "", nil, err
	}
	srv = &http.Server{Handler: h}
	go srv.Serve(ln)
	return fmt.Sprintf("http://%s", ln.Addr().String()), srv, nil
}

// addrOf strips the scheme from a base URL.
func addrOf(base string) string {
	const scheme = "http://"
	if len(base) > len(scheme) && base[:len(scheme)] == scheme {
		return base[len(scheme):]
	}
	return base
}

// KillSite hard-stops site i's HTTP server — listener closed, in-flight
// connections cut — simulating a crashed machine. Requests to the site then
// fail with connection errors until RestartSite. The LocalServer state
// (counters, reference database) survives, as a remounted disk would.
func (c *Cluster) KillSite(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.siteSrvs) {
		return fmt.Errorf("webserve: no site %d", i)
	}
	srv := c.siteSrvs[i]
	if srv == nil {
		return fmt.Errorf("webserve: site %d is already down", i)
	}
	c.siteSrvs[i] = nil
	return srv.Close()
}

// RestartSite brings a killed site back, preferring its previous address so
// already-rewritten documents keep working; if the port was reclaimed it
// falls back to a fresh ephemeral one and updates SiteBases.
func (c *Cluster) RestartSite(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.siteSrvs) {
		return fmt.Errorf("webserve: no site %d", i)
	}
	if c.siteSrvs[i] != nil {
		return fmt.Errorf("webserve: site %d is not down", i)
	}
	ln, err := net.Listen("tcp", c.siteAddrs[i])
	if err != nil {
		if ln, err = listenLoopback(); err != nil {
			return err
		}
	}
	srv := &http.Server{Handler: c.siteHandlers[i]}
	go srv.Serve(ln)
	c.siteSrvs[i] = srv
	base := fmt.Sprintf("http://%s", ln.Addr().String())
	if base != c.SiteBases[i] {
		c.SiteBases[i] = base
		c.Sites[i].SetBase(base)
		c.siteAddrs[i] = addrOf(base)
	}
	return nil
}

// SiteDown reports whether site i is currently killed.
func (c *Cluster) SiteDown(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return i >= 0 && i < len(c.siteSrvs) && c.siteSrvs[i] == nil
}

// Shutdown stops every server gracefully, letting in-flight responses
// drain until ctx expires; servers still busy at the deadline are then
// hard-closed. The first error (other than the expected closed-server
// state) is returned.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	srvs := make([]*http.Server, 0, len(c.siteSrvs)+1)
	if c.repoSrv != nil {
		srvs = append(srvs, c.repoSrv)
		c.repoSrv = nil
	}
	for i, srv := range c.siteSrvs {
		if srv != nil {
			srvs = append(srvs, srv)
			c.siteSrvs[i] = nil
		}
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	errs := make([]error, len(srvs))
	for i, srv := range srvs {
		wg.Add(1)
		go func(i int, srv *http.Server) {
			defer wg.Done()
			if err := srv.Shutdown(ctx); err != nil {
				_ = srv.Close() // deadline hit: cut what is left
				errs[i] = err
			}
		}(i, srv)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// closeDrain bounds Close's graceful drain.
const closeDrain = 5 * time.Second

// Close shuts the cluster down gracefully, draining for at most closeDrain.
func (c *Cluster) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeDrain)
	defer cancel()
	return c.Shutdown(ctx)
}

// ApplyPlan pushes a plan — a refresh, a repair or a recovery — into the
// running cluster: every live site's server rebuilds its reference database
// against the plan's workload and adopts the new replica set, and PageURL
// sends clients to each page's host under that workload — all without
// restarting a single server. The cluster's construction workload is
// untouched; routing follows the applied workload alone, so reapplying the
// original (env.W, placement) pair is a full recovery.
func (c *Cluster) ApplyPlan(w2 *workload.Workload, p *model.Placement) error {
	if w2.NumPages() != c.W.NumPages() || w2.NumSites() != c.W.NumSites() {
		return fmt.Errorf("webserve: plan shaped for a different workload (%d/%d pages, %d/%d sites)",
			w2.NumPages(), c.W.NumPages(), w2.NumSites(), c.W.NumSites())
	}
	for _, ls := range c.Sites {
		if err := ls.Rehome(w2, p); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.curW = w2
	c.curP = p
	c.mu.Unlock()
	return nil
}

// CurrentPlan returns the workload and placement the cluster serves right
// now: the construction pair before any ApplyPlan, the last applied pair
// after. The scrubber walks exactly this placement — verifying what the
// plan *currently* claims each site stores.
func (c *Cluster) CurrentPlan() (*workload.Workload, *model.Placement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curW, c.curP
}

// ClearRot marks site i's replica of object k repaired in the fault plan's
// injector — the live-cluster model of an anti-entropy re-write: once the
// scrubber re-ships the replica, subsequent serves are clean. A no-op
// without fault injection or for out-of-range sites.
func (c *Cluster) ClearRot(i int, k workload.ObjectID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.siteInjs) {
		c.siteInjs[i].ClearRot(int(k))
	}
}

// RotRemaining sums the still-rotted replica count across all sites.
func (c *Cluster) RotRemaining() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, inj := range c.siteInjs {
		n += inj.RotCount()
	}
	return n
}

// Route returns the site currently serving page j: its host under the last
// applied plan's workload, the construction workload's before any.
func (c *Cluster) Route(j workload.PageID) workload.SiteID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curW.Pages[j].Site
}

// PageURL returns the URL of page j on its current serving site (after a
// repair this points at the page's new home).
func (c *Cluster) PageURL(j workload.PageID) string {
	c.mu.Lock()
	base := c.SiteBases[c.curW.Pages[j].Site]
	c.mu.Unlock()
	return base + htmlrefs.PagePath(j)
}

// Client builds a resilient client wired to this cluster: repository
// fallback enabled, resilience counters registered in the cluster's
// registry, and — when tracing is armed — a client tracer
// sharing the cluster's span buffer, ID stream and epoch, so client and
// serve spans assemble into one tree.
func (c *Cluster) Client(opts ClientOptions) *Client {
	if opts.FallbackBase == "" {
		opts.FallbackBase = c.RepoBase
	}
	if opts.Metrics == nil {
		opts.Metrics = c.Metrics
	}
	if opts.Trace == nil {
		opts.Trace = c.Tracer.WithKind(trace.KindClient)
	}
	cl := NewClientOptions(c.W, opts)
	// Every payload is self-verifying, so cluster clients check end to end
	// by default: a corrupted body counts as a retryable failure
	// (retry.corrupt), never as success.
	cl.Verify = true
	return cl
}
