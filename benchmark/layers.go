package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/admission"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/htmlrefs"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// discard is an http.ResponseWriter that keeps nothing, so a handler's time
// is not the time to grow a recorder's buffer.
type discard struct{ header http.Header }

func (d *discard) Header() http.Header         { return d.header }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// handlerTime is the median time of one ServeHTTP call, cycling over paths.
func handlerTime(budget time.Duration, h http.Handler, paths []string) time.Duration {
	reqs := make([]*http.Request, len(paths))
	for i, p := range paths {
		reqs[i] = httptest.NewRequest(http.MethodGet, p, nil)
	}
	rw, i := &discard{header: make(http.Header)}, 0
	return medianOf(budget, func() {
		h.ServeHTTP(rw, reqs[i%len(reqs)])
		i++
	})
}

// payloadLayers times generating and verifying object payloads over the
// size mix of w: what every /mo/ response and every client or scrubber
// check costs, in MB/s.
func payloadLayers(budget time.Duration, w *workload.Workload, out map[string]float64) {
	var buf bytes.Buffer
	var read, verify time.Duration
	var n int64
	for k, end := 0, time.Now().Add(budget); k < 8 || time.Now().Before(end); k++ {
		id := workload.ObjectID(k % w.NumObjects())
		buf.Reset()
		t0 := time.Now()
		if _, err := io.Copy(&buf, webserve.ObjectReader(w, webserve.RepoSource, id)); err != nil {
			panic(err)
		}
		t1 := time.Now()
		if err := webserve.VerifyObject(w, id, buf.Bytes()); err != nil {
			panic(err)
		}
		read += t1.Sub(t0)
		verify += time.Since(t1)
		n += int64(buf.Len())
	}
	out["webserve.object_reader_mb_per_s"] = float64(n) / read.Seconds() / 1e6
	out["webserve.verify_mb_per_s"] = float64(n) / verify.Seconds() / 1e6
}

// serveLayers times each layer of the live page path in isolation, on the
// run's own cluster and workload: handlers through ServeHTTP, middleware
// around a next that does nothing, and the per-request primitives.
func serveLayers(budget time.Duration, r *liveRun, out map[string]float64) {
	w := r.env.W
	slice := budget / 16
	payloadLayers(2*slice, w, out)

	// Handlers: a site serving objects it stores and pages it hosts, and the
	// repository serving any object.
	site := r.cluster.Sites[0]
	var moPaths, pagePaths []string
	r.p.StoredSet(0).ForEach(func(k int) bool {
		moPaths = append(moPaths, htmlrefs.MOPath(workload.ObjectID(k)))
		return len(moPaths) < 64
	})
	for _, j := range w.Sites[0].Pages[:64] {
		pagePaths = append(pagePaths, htmlrefs.PagePath(j))
	}
	out["webserve.site_handler_us_per_req"] = us(handlerTime(2*slice, site, moPaths))
	out["webserve.repo_handler_us_per_req"] = us(handlerTime(2*slice, r.cluster.Repo, moPaths))
	out["webserve.page_handler_us_per_req"] = us(handlerTime(slice, site, pagePaths))

	// The reference database's serving-time rewrite and the client's parse.
	db, err := htmlrefs.BuildRefDB(w, 0, r.p, r.cluster.RepoBase)
	if err != nil {
		panic(err)
	}
	pages := w.Sites[0].Pages
	var doc []byte
	i := 0
	out["htmlrefs.serve_us_per_page"] = us(medianOf(slice, func() {
		doc, _ = db.Serve(pages[i%len(pages)], r.cluster.SiteBases[0])
		i++
	}))
	out["htmlrefs.parse_refs_us_per_page"] = us(medianOf(slice, func() { htmlrefs.ParseRefs(doc) }))

	// Middleware around a no-op next.
	next := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	clock := func() time.Duration { return time.Second }
	adm := admission.NewServer(admission.Config{}, clock, admission.Metrics{})
	out["admission.middleware_ns_per_req"] = float64(handlerTime(slice, adm.Middleware(next), moPaths))
	inj := idleFaults(r.seed, 1).SiteInjector(0)
	out["faults.middleware_ns_per_req"] = float64(handlerTime(slice, faults.Middleware(inj, clock, faults.Metrics{}, next), moPaths))

	// Per-request primitives, in batches.
	const batch = 1000
	ep := admission.NewEndpoint(admission.Config{})
	ctx := context.Background()
	out["admission.admit_ns"] = nsPerCall(slice, batch, func() {
		if _, release := ep.Admit(ctx, clock, time.Time{}); release != nil {
			release()
		}
	})
	out["faults.decide_ns"] = nsPerCall(slice, batch, func() { inj.DecideRequest(time.Second, moPaths[0]) })
	var tr *trace.Tracer
	n := 0
	out["trace.span_ns"] = nsPerCall(slice, batch, func() {
		if n%batch == 0 { // a fresh buffer per batch: a full one drops spans, which is cheaper
			tr = trace.NewTracer(trace.NewBuffer(0), r.seed, trace.KindServer)
		}
		n++
		sp := tr.StartRemote(trace.SpanServe, 1, 1)
		sp.SetAttr(trace.A(trace.AttrSite, "0"), trace.A("path", moPaths[0]))
		sp.SetAttr(trace.I(trace.AttrStatus, 200))
		sp.End()
	})
	journal := trace.NewJournal(256)
	out["trace.journal_record_ns"] = nsPerCall(slice, batch, func() { journal.Record("bench", trace.A("k", "v")) })
	counter := telemetry.NewRegistry().Counter("bench.count")
	out["telemetry.counter_inc_ns"] = nsPerCall(slice, batch, counter.Inc)
	est, err := estimate.New(w, estimate.Config{})
	if err != nil {
		panic(err)
	}
	out["estimate.observe_ns"] = nsPerCall(slice, batch, func() {
		est.Observe(0, pages[n%len(pages)], 1)
		n++
	})
}
