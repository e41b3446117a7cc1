// Package httpsim is the request-level simulator of the paper's Section 5:
// it draws page requests per site (10,000 each under Table 1) from the
// hot/cold popularity mixture, serves each page over two parallel persistent
// connections — local server and repository — with per-request transfer
// rates and overheads perturbed around the planner's estimates (the §5.1
// model), draws the optional-object follow-up requests, and aggregates
// response-time statistics. An optional fluid-queue mode adds server
// occupancy delays, relaxing the paper's constant-processing-time
// assumption (an extension, benchmarked as an ablation).
package httpsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Decider is the policy under simulation: for each page view it serves the
// page's compulsory objects and says how their bytes split between the
// local server and the repository, and whether a requested optional link is
// served locally. Implementations may keep state (the LRU baseline does):
// one site's views arrive from one goroutine, in order, but distinct sites
// may be replayed concurrently (Config.Workers), so the state must be
// partitioned by site — as every policy in internal/policies is.
type Decider interface {
	// Name identifies the policy in reports.
	Name() string
	// Compulsory serves one view of page j's compulsory objects, in order,
	// and returns the bytes downloaded from the local server and from the
	// repository, and how many of the objects were local.
	Compulsory(j workload.PageID) (local, remote units.ByteSize, localReqs int64)
	// OptLocal reports whether the idx-th optional link of page j — which
	// the simulated user decided to request — is downloaded locally.
	OptLocal(j workload.PageID, idx int) bool
}

// Config controls a simulation run.
type Config struct {
	// RequestsPerSite is the number of page requests drawn per site.
	RequestsPerSite int
	// Perturb is the §5.1 estimate-vs-actual deviation model.
	Perturb netsim.PerturbConfig
	// Queueing enables the fluid-queue server-occupancy extension.
	Queueing bool
	// Warmup runs the full request sequence once, unmeasured, before the
	// measured pass — the "ideal" (warm) start for cache-based policies.
	Warmup bool
	// Workers bounds cross-site concurrency; 0 = sites, 1 = sequential.
	Workers int
	// RetainSamples keeps every page response time for percentile queries
	// (costs memory proportional to the request count).
	RetainSamples bool
	// RemoteRedirectPenalty models redirection-based schemes (the paper's
	// Section-6 comparison): when positive, every repository-served HTTP
	// request pays it — the paper's complaint is precisely that "the other
	// schemes need to redirect each HTTP GET request separately", while
	// its own rewrite amortizes one computation over all of a page's
	// objects. The paper's scheme and its ideal-LRU baseline use 0.
	RemoteRedirectPenalty units.Seconds
	// Outage models partial site failure (the degraded mode of the live
	// cluster's repository fallback). The zero value simulates a perfectly
	// healthy cluster.
	Outage OutageConfig
	// Trace, when non-nil, receives the measured pass's span forest: one
	// "page" root per view with per-chain time splits on the simulator's
	// virtual clock, in the same vocabulary the live webserve client emits.
	// Span IDs draw from a dedicated Split-derived stream and views are
	// appended in deterministic site-then-request order, so equal seeds
	// yield a byte-identical JSONL export (pinned by the trace-golden CI
	// stage). Warmup passes emit nothing.
	Trace *trace.Buffer
}

// OutageConfig is the simulator's degraded mode: each page view finds its
// local site unavailable with probability 1-Availability, in which case the
// whole view — HTML, every compulsory object, every optional request — is
// served by the repository (the paper's always-on root; Eq. 5 degenerates
// to the remote chain) and pays FailoverDelay seconds of detection and
// retry cost. Outage draws come from a dedicated random stream, so enabling
// the mode never perturbs the request sequence policies are compared on.
type OutageConfig struct {
	// Enabled turns the mode on; with it off the other fields are ignored.
	Enabled bool
	// Availability is the probability a page view finds its site up, in
	// [0, 1]. 0 models a repository-only system (every view degraded).
	Availability float64
	// FailoverDelay is added to every degraded view's response time — the
	// cost of discovering the outage and re-routing (timeouts, retries).
	FailoverDelay units.Seconds
}

// Validate rejects unusable outage configs.
func (o *OutageConfig) Validate() error {
	if !o.Enabled {
		return nil
	}
	if o.Availability < 0 || o.Availability > 1 {
		return fmt.Errorf("httpsim: Availability %v outside [0, 1]", o.Availability)
	}
	if o.FailoverDelay < 0 {
		return fmt.Errorf("httpsim: negative FailoverDelay")
	}
	return nil
}

// DefaultConfig returns the paper's simulation parameters for a workload.
func DefaultConfig(w *workload.Workload) Config {
	return Config{
		RequestsPerSite: w.Config.RequestsPerSite,
		Perturb:         netsim.DefaultPerturbConfig(),
	}
}

// Result aggregates a run.
type Result struct {
	Policy string

	// PageRT accumulates Eq. 5 response times, one per page view.
	PageRT stats.Accumulator
	// OptPerView accumulates the total optional-download seconds per page
	// view (zero for views that requested nothing).
	OptPerView stats.Accumulator
	// OptRT accumulates individual optional download times.
	OptRT stats.Accumulator
	// SitePageRT breaks PageRT down per site.
	SitePageRT []stats.Accumulator
	// Samples holds every page response time when Config.RetainSamples.
	Samples stats.Sample

	// LocalRequests / RepoRequests count HTTP requests by server side.
	LocalRequests, RepoRequests int64
	// DegradedViews counts page views served entirely by the repository
	// because their local site was unavailable (Config.Outage).
	DegradedViews int64

	alpha1, alpha2 float64

	// spans is this partial result's site-local span forest; Run merges the
	// partials in site order into Config.Trace so the export order is
	// deterministic despite cross-site concurrency.
	spans []trace.Span
}

// newResult builds an empty result for a workload.
func newResult(policy string, w *workload.Workload) *Result {
	return &Result{
		Policy:     policy,
		SitePageRT: make([]stats.Accumulator, w.NumSites()),
		alpha1:     w.Config.Alpha1,
		alpha2:     w.Config.Alpha2,
	}
}

// CompositeMean returns the headline response-time metric: the α-weighted
// blend of the mean page retrieval time and the mean optional time per view
// (DESIGN.md §3.9), matching the weights of the planner's objective.
func (r *Result) CompositeMean() float64 {
	den := r.alpha1 + r.alpha2
	if den == 0 {
		return r.PageRT.Mean()
	}
	return (r.alpha1*r.PageRT.Mean() + r.alpha2*r.OptPerView.Mean()) / den
}

// validate rejects a config Run or Record cannot draw traffic from.
func (cfg *Config) validate(w *workload.Workload, est *netsim.Estimates) error {
	if cfg.RequestsPerSite <= 0 {
		return fmt.Errorf("httpsim: RequestsPerSite must be positive, got %d", cfg.RequestsPerSite)
	}
	if err := cfg.Perturb.Validate(); err != nil {
		return err
	}
	if len(est.Sites) != w.NumSites() {
		return fmt.Errorf("httpsim: %d estimates for %d sites", len(est.Sites), w.NumSites())
	}
	return cfg.Outage.Validate()
}

// Run simulates the policy over the workload: Replay(Record(...)), one site
// at a time, each worker recording into the buffer it replayed its previous
// site from. The stream seeds everything: two runs with equal (workload,
// estimates, config, stream seed) produce identical request sequences and
// perturbations regardless of the policy, so policies are compared on
// exactly the same traffic.
func Run(w *workload.Workload, est *netsim.Estimates, dec Decider, cfg Config, stream *rng.Stream) (*Result, error) {
	if err := cfg.validate(w, est); err != nil {
		return nil, err
	}
	return replaySites(w, dec, cfg, stream.Seed(), func(i workload.SiteID, buf []TraceEvent) ([]TraceEvent, error) {
		return recordSite(w, est, cfg, stream, i, buf)
	})
}

// replaySites replays every site's views through dec and merges the per-site
// partials in site order, so the result does not depend on Workers.
// views(i, buf) records or looks up site i's; buf is what it returned to the
// same worker last time, free to overwrite. The replay-time streams
// (arrivals, outages, span IDs) are re-derived from seed, the one the views
// were drawn from.
func replaySites(w *workload.Workload, dec Decider, cfg Config, seed uint64, views func(workload.SiteID, []TraceEvent) ([]TraceEvent, error)) (*Result, error) {
	n := w.NumSites()
	partials := make([]*Result, n)
	errs := make([]error, n)
	workers := cfg.Workers
	if workers <= 0 || workers > n {
		workers = n
	}
	// The caller is one of the workers: Workers 1 starts no goroutine and
	// walks the sites inline, in order.
	var wg sync.WaitGroup
	var next atomic.Int64
	walk := func() {
		defer wg.Done()
		var evs []TraceEvent
		for k := next.Add(1) - 1; k < int64(n); k = next.Add(1) - 1 {
			i := workload.SiteID(k)
			if evs, errs[i] = views(i, evs); errs[i] != nil {
				continue
			}
			stream := rng.New(seed).Split(uint64(i))
			if cfg.Warmup { // same views, same sub-streams, metrics discarded
				replayPass(w, dec, cfg, stream, i, evs, nil)
			}
			partials[i] = &Result{}
			replayPass(w, dec, cfg, stream, i, evs, partials[i])
		}
	}
	wg.Add(workers)
	for k := 1; k < workers; k++ {
		go walk()
	}
	walk()
	wg.Wait()

	res := newResult(dec.Name(), w)
	for i, partial := range partials {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.PageRT.Merge(&partial.PageRT)
		res.OptPerView.Merge(&partial.OptPerView)
		res.OptRT.Merge(&partial.OptRT)
		res.SitePageRT[i] = partial.PageRT // the partial's views are all site i's
		res.LocalRequests += partial.LocalRequests
		res.RepoRequests += partial.RepoRequests
		res.DegradedViews += partial.DegradedViews
		cfg.Trace.Add(partial.spans...)
		for _, v := range partial.Samples.Values() {
			res.Samples.Add(v)
		}
	}
	return res, nil
}

// Stream labels under a site's traffic stream. The first three are drawn at
// record time (recordSite), the rest at replay time (replayPass), each from
// its own stream, so no replay-time option can shift the recorded
// sequences. The values are load-bearing: Split folds them into the seed
// derivation, so renumbering silently changes every golden result.
const (
	simPageStream uint64 = iota + 1
	simPerturbStream
	simOptStream
	simArrivalStream
	simOutageStream
	// simTraceStream feeds span-ID generation only.
	simTraceStream
)

// replayPass serves site i's recorded views under the policy — the one place
// a Decider is consulted. When out is nil the pass is a warmup (state
// advances, nothing recorded); otherwise out records site i's views alone,
// so its PageRT is the site's entry of SitePageRT. stream is the site's
// traffic stream.
func replayPass(w *workload.Workload, dec Decider, cfg Config, stream *rng.Stream, i workload.SiteID, views []TraceEvent, out *Result) {
	arrivalStream := stream.Split(simArrivalStream)
	outageStream := stream.Split(simOutageStream)

	// The span emitter materializes the measured pass as a trace forest.
	var em *spanEmitter
	if out != nil && cfg.Trace != nil {
		em = &spanEmitter{ids: trace.NewIDGen(stream.Split(simTraceStream)), site: int(i)}
	}

	// Fluid queues for the occupancy extension; the repository queue is
	// per-site here (each site's runner is independent), which models the
	// repository as horizontally partitioned per region — the conservative
	// reading for an "infinite capacity" repository, and documented as part
	// of the extension.
	var siteQ, repoQ *fluidQueue
	var clock, interArrival float64
	// tclock is the span timeline when queueing is off: views serialize at
	// their own response times, which keeps Start values deterministic.
	var tclock float64
	if cfg.Queueing {
		siteQ = newFluidQueue(float64(w.Sites[i].Capacity))
		repoQ = newFluidQueue(float64(w.Config.RepoCapacity))
		totalRate := 0.0
		for _, pid := range w.Sites[i].Pages {
			totalRate += float64(w.Pages[pid].Freq)
		}
		interArrival = 1 / totalRate
	}

	for n := range views {
		ev := &views[n]
		j := ev.Page
		pg := &w.Pages[j]

		// Degraded mode: with the site down for this view, every transfer —
		// the HTML included — degenerates to the repository chain. The
		// decider is consulted either way, so stateful policies (LRU) evolve
		// identically whether or not the site is up.
		siteUp := true
		if cfg.Outage.Enabled {
			siteUp = outageStream.Bool(cfg.Outage.Availability)
		}
		l, r, lr := dec.Compulsory(j)
		var localBytes, remoteBytes units.ByteSize
		var localReqs, repoReqs int64
		if siteUp {
			localBytes, localReqs = pg.HTMLSize+l, 1+lr
			remoteBytes, repoReqs = r, int64(len(pg.Compulsory))-lr
		} else {
			remoteBytes, repoReqs = pg.HTMLSize+l+r, 1+int64(len(pg.Compulsory))
		}

		var localT, remoteT units.Seconds
		var localXfer, remoteXfer, remoteOvhdEff units.Seconds
		if localReqs > 0 {
			localXfer = ev.LocalRate.TransferTime(localBytes)
			localT = ev.LocalOvhd + localXfer
		}
		if repoReqs > 0 {
			remoteXfer = ev.RepoRate.TransferTime(remoteBytes)
			penalty := units.Seconds(float64(cfg.RemoteRedirectPenalty) * float64(repoReqs))
			// Addition order matches the pre-instrumentation expression so
			// golden simulation results stay bit-identical.
			remoteT = ev.RepoOvhd + remoteXfer + penalty
			remoteOvhdEff = ev.RepoOvhd + penalty
		}
		if !siteUp {
			remoteT += cfg.Outage.FailoverDelay
		}

		var localQD, remoteQD units.Seconds
		if cfg.Queueing {
			clock += arrivalStream.Uniform(0, 2*interArrival) // mean 1/rate
			if localReqs > 0 {
				localQD = units.Seconds(siteQ.delay(clock, float64(localReqs)))
				localT += localQD
			}
			if repoReqs > 0 {
				remoteQD = units.Seconds(repoQ.delay(clock, float64(repoReqs)))
				remoteT += remoteQD
			}
		}

		pageRT := float64(units.MaxSeconds(localT, remoteT))
		viewStart := tclock
		if cfg.Queueing {
			viewStart = clock
		}
		var vTID trace.TraceID
		var vRoot trace.SpanID
		if em != nil {
			vTID, vRoot = em.emitView(j, viewStart, pageRT, siteUp, cfg.Outage.FailoverDelay,
				&viewTiming{total: localT, transfer: localXfer, queue: localQD, overhead: ev.LocalOvhd,
					bytes: localBytes, requests: localReqs},
				&viewTiming{total: remoteT, transfer: remoteXfer, queue: remoteQD, overhead: remoteOvhdEff,
					bytes: remoteBytes, requests: repoReqs})
		}

		// Optional follow-ups the user requested, each over a fresh
		// connection (Eq. 6) with its own recorded draws.
		optTotal := 0.0
		for oi, idx := range ev.Optional {
			size, d := w.ObjectSize(pg.Optional[idx].Object), &ev.OptDraws[oi]
			chain, q := "remote", repoQ
			var t units.Seconds
			if dec.OptLocal(j, idx) && siteUp {
				chain, q = "local", siteQ
				t = d.LocalOvhd + d.LocalRate.TransferTime(size)
				localReqs++
			} else {
				t = d.RepoOvhd + d.RepoRate.TransferTime(size) + cfg.RemoteRedirectPenalty
				repoReqs++
			}
			if cfg.Queueing {
				t += units.Seconds(q.delay(clock, 1))
			}
			if em != nil {
				// Optionals serialize after the page completes.
				em.emitOpt(vTID, vRoot, pg.Optional[idx].Object, chain, viewStart+pageRT+optTotal, t)
			}
			optTotal += float64(t)
			if out != nil {
				out.OptRT.Add(float64(t))
			}
		}

		tclock += pageRT + optTotal
		if out != nil {
			out.PageRT.Add(pageRT)
			out.OptPerView.Add(optTotal)
			out.LocalRequests += localReqs
			out.RepoRequests += repoReqs
			if !siteUp {
				out.DegradedViews++
			}
			if cfg.RetainSamples {
				out.Samples.Add(pageRT)
			}
		}
	}
	if em != nil {
		out.spans = em.spans
	}
}
