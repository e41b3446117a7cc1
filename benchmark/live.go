package main

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/htmlrefs"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// liveClients is the closed loop's width: one client per CPU of the
// reference box. A page has at most the paper's two chains, so at most four
// connections are in flight.
const liveClients = 2

// arming says which protections a live cluster runs with; the zero value is
// the bare cluster and every field on is "fully armed".
type arming struct {
	trace, admission, faults, verify, metrics bool
}

var fullyArmed = arming{true, true, true, true, true}

// ladder is the bare-to-armed sequence the traced live-small run climbs,
// one protection more per rung, named by the layer the rung adds.
var ladder = []struct {
	metric string
	arm    arming
}{
	{"webserve.bare_pages_per_s", arming{}},
	{"trace.rung_pages_per_s", arming{trace: true}},
	{"admission.rung_pages_per_s", arming{trace: true, admission: true}},
	{"faults.rung_pages_per_s", arming{trace: true, admission: true, faults: true}},
	{"webserve.verify_rung_pages_per_s", arming{trace: true, admission: true, faults: true, verify: true}},
	{"webserve.armed_pages_per_s", fullyArmed},
}

// liveWorkload is the loopback cluster's content: four sites, Table-1
// object sizes unless small, in which case objects are 1-4 KB and the cost
// of a page is its requests, not its bytes.
func liveWorkload(small bool) workload.Config {
	c := quickWorkload()
	c.PagesPerSiteMin, c.PagesPerSiteMax = 300, 300
	if small {
		c.MOClasses = []workload.SizeClass{{Frac: 1, Lo: 1 * units.KB, Hi: 4 * units.KB}}
	}
	return c
}

// idleFaults arms the fault middleware without ever injecting: a spec with
// no faults at all is skipped by the cluster, so every server gets one
// outage window that starts in a thousand hours.
func idleFaults(seed uint64, sites int) *faults.Plan {
	idle := faults.Spec{Outages: []faults.Window{{Start: 1000 * time.Hour, End: 1001 * time.Hour}}}
	p := &faults.Plan{Seed: seed, Repo: idle}
	for i := 0; i < sites; i++ {
		p.Sites = append(p.Sites, idle)
	}
	return p
}

// liveRun is live-table1 and live-small: page downloads from a loopback
// cluster by a closed loop of liveClients clients.
type liveRun struct {
	small bool
	arm   arming
	seed  uint64

	env     *model.Env
	p       *model.Placement
	cluster *webserve.Cluster
	spans   *trace.Buffer
	clients []*webserve.Client
	streams []*rng.Stream
	cum     []float64 // cumulative page frequencies, for drawing pages
	html    []int64   // per page, the length its served document must have

	pages, requests, bytes atomic.Int64
	retries, fallbacks     atomic.Int64
	last                   *sample
}

func (r *liveRun) setup(seed uint64) error {
	r.seed = seed
	env, err := newEnv(liveWorkload(r.small), testbedSeed, func(w *workload.Workload) model.Budgets {
		// Half the storage, so both chains of a page carry bytes.
		return model.FullBudgets(w).Scale(w, 0.5, 1)
	})
	if err != nil {
		return err
	}
	r.env = env
	if r.p, _, err = core.Plan(env, core.Options{Workers: 1}); err != nil {
		return err
	}
	opts := webserve.ClusterOptions{Metrics: r.arm.metrics, TraceSeed: seed}
	if r.arm.trace {
		r.spans = trace.NewBuffer(1 << 16)
		opts.Trace = r.spans
	}
	if r.arm.admission {
		opts.Admission = &admission.Config{}
	}
	if r.arm.faults {
		opts.Faults = idleFaults(seed, env.W.NumSites())
	}
	if r.cluster, err = webserve.StartClusterOptions(env.W, r.p, opts); err != nil {
		return err
	}
	var sum float64
	for j := range env.W.Pages {
		sum += float64(env.W.Pages[j].Freq)
		r.cum = append(r.cum, sum)
		r.html = append(r.html, r.htmlBytes(workload.PageID(j)))
	}
	for c := 0; c < liveClients; c++ {
		cl := r.cluster.Client(webserve.ClientOptions{JitterSeed: seed + uint64(c)})
		cl.Verify = r.arm.verify
		r.clients = append(r.clients, cl)
		r.streams = append(r.streams, rng.New(seed).Split(uint64(c)))
	}
	// One page per client opens the connections: the same page whatever
	// the seed, so that set-up is the same work.
	var t tally
	for c := range r.clients {
		r.fetch(c, workload.PageID(c), 0, &t, nil)
	}
	return t.first
}

func (r *liveRun) close() {
	if r.cluster != nil {
		if err := r.cluster.Close(); err != nil {
			panic(err)
		}
	}
}

// draw picks client c's next page by the workload's page frequencies (10 %
// hot pages take 60 % of the traffic).
func (r *liveRun) draw(c int) workload.PageID {
	x := r.streams[c].Float64() * r.cum[len(r.cum)-1]
	return workload.PageID(sort.SearchFloat64s(r.cum, x))
}

// fetch has client c download page j and checks what came back against the
// workload.
func (r *liveRun) fetch(c int, j workload.PageID, op int, t *tally, rec *recorder) {
	pg := &r.env.W.Pages[j]
	start := time.Now()
	res, err := r.clients[c].FetchPage(r.cluster.PageURL(j), j)
	if err != nil {
		t.note(err)
		return
	}
	var moBytes int64
	for _, k := range pg.Compulsory {
		moBytes += int64(r.env.W.ObjectSize(k))
	}
	got := res.LocalChain.Bytes + res.RemoteChain.Bytes
	switch {
	case res.Retries+res.Fallbacks > 0 || res.DegradedHTML || res.Brownout > 0:
		err = fmt.Errorf("page %d: %d retries, %d fallbacks, degraded=%v, brownout=%d", j, res.Retries, res.Fallbacks, res.DegradedHTML, res.Brownout)
	case res.LocalChain.Objects+res.RemoteChain.Objects != len(pg.Compulsory) || got != moBytes:
		err = fmt.Errorf("page %d: %d objects, %d bytes; workload says %d objects, %d bytes", j,
			res.LocalChain.Objects+res.RemoteChain.Objects, got, len(pg.Compulsory), moBytes)
	case res.HTMLBytes != r.html[j]:
		err = fmt.Errorf("page %d: %d HTML bytes, workload and placement say %d", j, res.HTMLBytes, r.html[j])
	}
	t.note(err)
	r.pages.Add(1)
	r.requests.Add(int64(1 + len(pg.Compulsory)))
	r.bytes.Add(res.HTMLBytes + got)
	r.retries.Add(int64(res.Retries))
	r.fallbacks.Add(int64(res.Fallbacks))

	// The client's view of Eq. 5: the HTML, then two chains in parallel.
	if rec != nil {
		op = c + liveClients*op
		chains := max(res.LocalChain.Elapsed, res.RemoteChain.Elapsed)
		html := res.Elapsed - chains
		rec.add("client.page_ms", 0, op, start, res.Elapsed)
		page := len(rec.spans)
		rec.add("client.html_ms", page, op, start, html)
		rec.add("client.local_chain_ms", page, op, start.Add(html), res.LocalChain.Elapsed)
		rec.add("client.remote_chain_ms", page, op, start.Add(html), res.RemoteChain.Elapsed)
	}
}

// htmlBytes is the size page j's document must have as its site serves it:
// the stored document with each locally assigned reference rewritten from
// the repository's base URL to the site's.
func (r *liveRun) htmlBytes(j workload.PageID) int64 {
	pg := &r.env.W.Pages[j]
	local := 0
	for idx := range pg.Compulsory {
		if r.p.CompLocal(j, idx) {
			local++
		}
	}
	for idx := range pg.Optional {
		if r.p.OptLocal(j, idx) {
			local++
		}
	}
	stored := len(htmlrefs.RenderPage(r.env.W, j, r.cluster.RepoBase))
	return int64(stored + local*(len(r.cluster.SiteBases[pg.Site])-len(r.cluster.RepoBase)))
}

func (r *liveRun) objective() float64 { return relativeD(r.env, r.p) }

func (r *liveRun) measure(budget time.Duration, t *tally, rec *recorder) *sample {
	r.last = closedLoop(budget, liveClients, func(c, i int) { r.fetch(c, r.draw(c), i, t, rec) })
	if r.arm == fullyArmed {
		r.checkArmed(t)
	}
	return r.last
}

// checkArmed fails the run unless the armed cluster really ran armed: a
// later change to the cluster's short-circuits must not quietly turn this
// into a bare run.
func (r *liveRun) checkArmed(t *tally) {
	requests := r.requests.Load()
	admitted, shed := int64(r.counters("admission.", ".admitted")), r.counters("admission.", ".shed_by.")
	t.expect(admitted == requests, "admission admitted %d requests, clients sent %d", admitted, requests)
	t.expect(shed == 0, "admission shed %v requests", shed)
	faultFamilies := make(map[string]bool)
	for _, c := range r.cluster.Metrics.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "faults.") {
			faultFamilies[c.Name[:strings.LastIndex(c.Name, ".")]] = true
		}
	}
	t.expect(len(faultFamilies) == r.env.W.NumSites()+1, "fault counters for %d servers, want %d", len(faultFamilies), r.env.W.NumSites()+1)
	// One serve span per request — or, once the bounded buffer has dropped
	// spans and only the totals remain, at least two spans per request. A
	// server ends a request's span after the client has its last byte, so
	// the last ones get a moment to land.
	var serve, total int64
	spansComplete := func() bool {
		serve, total = 0, int64(r.spans.Len())+r.spans.Dropped()
		for _, s := range r.spans.Spans() {
			if s.Name == trace.SpanServe {
				serve++
			}
		}
		if r.spans.Dropped() == 0 {
			return serve == requests
		}
		return serve > 0 && total >= 2*requests
	}
	for deadline := time.Now().Add(time.Second); !spansComplete() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	t.expect(spansComplete(), "%d spans (%d serve, %d dropped) for %d requests", total, serve, r.spans.Dropped(), requests)
	for _, cl := range r.clients {
		t.expect(cl.Verify, "a client runs without verification")
	}
}

// counters sums the cluster registry's counters whose names have the prefix
// and contain the part.
func (r *liveRun) counters(prefix, part string) float64 {
	var sum int64
	for _, c := range r.cluster.Metrics.Snapshot().Counters {
		if strings.HasPrefix(c.Name, prefix) && strings.Contains(c.Name, part) {
			sum += c.Value
		}
	}
	return float64(sum)
}

func (r *liveRun) layers(budget time.Duration, t *tally, rec *recorder, out map[string]float64) {
	// What the armed run just did, from its own books.
	pages := float64(r.pages.Load())
	out["client.retries"] = float64(r.retries.Load())
	out["client.fallbacks"] = float64(r.fallbacks.Load())
	out["trace.spans_per_page"] = (float64(r.spans.Len()) + float64(r.spans.Dropped())) / pages
	out["trace.dropped_spans"] = float64(r.spans.Dropped())
	out["admission.shed"] = r.counters("admission.", ".shed_by.")
	out["faults.injected"] = r.counters("faults.", ".injected_")
	out["client.page_p95_ms"] = ms(quantile(r.last.durs, 0.95))
	out["client.page_p99_ms"] = ms(quantile(r.last.durs, 0.99))
	out["client.goodput_mb_per_s"] = float64(r.bytes.Load()) / pages * float64(len(r.last.durs)) / r.last.wall.Seconds() / 1e6

	if r.small {
		for _, rung := range ladder {
			lr := &liveRun{small: true, arm: rung.arm}
			if err := lr.setup(r.seed); err != nil {
				panic(err)
			}
			s := lr.measure(budget/2/time.Duration(len(ladder)), t, nil)
			lr.close()
			out[rung.metric] = float64(len(s.durs)) / s.wall.Seconds()
		}
		budget /= 2
	}
	serveLayers(budget, r, out)
}
