package webserve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/htmlrefs"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// quickOpts returns the client options most tests use.
func quickOpts() ClientOptions {
	return ClientOptions{Retries: 2}
}

func TestClientTimeoutOnStalledServer(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		<-release // hold the request open until the test ends
	}))
	defer stalled.Close()
	defer close(release)

	opts := quickOpts()
	opts.Retries = -1
	c := NewClientOptions(tinyWorkload(t), opts)
	c.http.Timeout = 150 * time.Millisecond

	start := time.Now()
	_, err := c.GetDoc(stalled.URL + "/page/0")
	if err == nil {
		t.Fatal("request against a stalled server returned no error")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("timeout took %v — the per-request deadline is not wired", took)
	}
}

func TestClientDefaultTimeout(t *testing.T) {
	c := NewClient(tinyWorkload(t))
	if c.http.Timeout != requestTimeout || c.http.Timeout == 0 {
		t.Fatal("underlying http.Client has no timeout — a stalled server would hang FetchPage forever")
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(rw, "transient", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(rw, "content")
	}))
	defer flaky.Close()

	c := NewClientOptions(tinyWorkload(t), quickOpts())
	data, _, _, retries, err := c.getRetry(context.Background(), flaky.URL+"/doc", keepDoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "content" {
		t.Fatalf("got %q", data)
	}
	if retries != 2 || calls.Load() != 3 {
		t.Fatalf("retries=%d calls=%d, want 2 and 3", retries, calls.Load())
	}
}

func TestClientDoesNotRetry404(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		calls.Add(1)
		http.NotFound(rw, req)
	}))
	defer srv.Close()

	c := NewClientOptions(tinyWorkload(t), quickOpts())
	if _, _, _, _, err := c.getRetry(context.Background(), srv.URL+"/mo/0", keepDoc, nil); err == nil {
		t.Fatal("404 did not error")
	}
	if calls.Load() != 1 {
		t.Fatalf("404 was attempted %d times; authoritative misses must not retry", calls.Load())
	}
}

func TestBackoffDeterminismAndBounds(t *testing.T) {
	opts := DefaultClientOptions()
	opts.JitterSeed = 7
	a := NewClientOptions(tinyWorkload(t), opts)
	b := NewClientOptions(tinyWorkload(t), opts)
	for attempt := 1; attempt <= 8; attempt++ {
		da, db := a.backoff(attempt), b.backoff(attempt)
		if da != db {
			t.Fatalf("attempt %d: identically-seeded backoffs differ (%v vs %v)", attempt, da, db)
		}
		if da < backoffBase/2 || da > backoffMax {
			t.Fatalf("attempt %d: backoff %v outside [base/2, max]", attempt, da)
		}
	}
}

func TestFetchMOFallsBackToRepository(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartCluster(w, model.AllLocal(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	c := cluster.Client(quickOpts())
	c.Verify = true
	k := w.Sites[0].Objects[0]
	// A dead host: connection refused immediately, then repository fallback.
	n, _, fellBack, err := c.fetchMO(context.Background(), "http://127.0.0.1:1"+htmlrefs.MOPath(k), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fellBack {
		t.Fatal("fallback not reported")
	}
	if n != int64(w.ObjectSize(k)) {
		t.Fatalf("read %d bytes, want %d", n, w.ObjectSize(k))
	}
}

// TestStaleDocumentFallback replays the plan-refresh race: a client holds a
// document rewritten under the old placement and asks the site for an
// object it no longer stores. The 404 is authoritative — and the resilient
// client degrades it to the repository instead of failing the download.
func TestStaleDocumentFallback(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartCluster(w, model.AllLocal(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	c := cluster.Client(quickOpts())
	c.Verify = true
	pid := w.Sites[0].Pages[0]
	doc, err := c.GetDoc(cluster.PageURL(pid)) // rewritten: everything local
	if err != nil {
		t.Fatal(err)
	}
	// The plan refresh drops every replica from site 0.
	if err := cluster.Sites[0].Rehome(w, model.AllRemote(w)); err != nil {
		t.Fatal(err)
	}
	for _, r := range htmlrefs.ParseRefs(doc) {
		if r.Optional {
			continue
		}
		if !strings.HasPrefix(string(doc[r.Start:r.End]), cluster.SiteBases[0]) {
			t.Fatalf("stale doc ref %q not local", doc[r.Start:r.End])
		}
		n, _, fellBack, err := c.fetchMO(context.Background(), string(doc[r.Start:r.End]), r.Object, nil)
		if err != nil {
			t.Fatalf("stale-document fetch failed instead of degrading: %v", err)
		}
		if !fellBack || n != int64(w.ObjectSize(r.Object)) {
			t.Fatalf("stale-document fetch: fellBack=%v, %d of %d bytes", fellBack, n, w.ObjectSize(r.Object))
		}
		break
	}
}

// TestFullSiteOutageAllPagesComplete is the PR's acceptance scenario: with
// a fault plan taking site 0 fully out, every page of the workload still
// downloads successfully — site-0 pages via the repository's master copy
// (flagged degraded), everyone else untouched.
func TestFullSiteOutageAllPagesComplete(t *testing.T) {
	w := tinyWorkload(t)
	p := plannedPlacement(t, w)
	plan := &faults.Plan{Seed: 1, Sites: make([]faults.Spec, w.NumSites())}
	plan.Sites[0] = faults.Spec{Outages: []faults.Window{{Start: 0, End: time.Duration(1<<63 - 1)}}}
	cluster, err := StartClusterOptions(w, p, ClusterOptions{Metrics: true, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	client := cluster.Client(quickOpts())
	client.Verify = true
	var degraded int
	for j := range w.Pages {
		pid := workload.PageID(j)
		res, err := client.FetchPage(cluster.PageURL(pid), pid)
		if err != nil {
			t.Fatalf("page %d (site %d) failed despite repository fallback: %v", pid, w.Pages[pid].Site, err)
		}
		wantComp := len(w.Pages[pid].Compulsory)
		if got := res.LocalChain.Objects + res.RemoteChain.Objects; got != wantComp {
			t.Fatalf("page %d delivered %d objects, want %d", pid, got, wantComp)
		}
		if w.Pages[pid].Site == 0 {
			if !res.DegradedHTML || !res.Degraded() {
				t.Fatalf("page %d on the dead site not flagged degraded: %+v", pid, res)
			}
			if res.LocalChain.Objects != 0 {
				t.Fatalf("page %d on the dead site claims %d local objects", pid, res.LocalChain.Objects)
			}
			degraded++
		} else if res.DegradedHTML {
			t.Fatalf("page %d on a healthy site flagged degraded", pid)
		}
	}
	if degraded == 0 {
		t.Fatal("site 0 hosts no pages — the outage scenario tested nothing")
	}
	if got := cluster.Metrics.Counter("client.degraded_pages").Value(); got != int64(degraded) {
		t.Errorf("telemetry degraded_pages = %d, want %d", got, degraded)
	}
	if got := cluster.Metrics.Counter("repo.page_requests").Value(); got < int64(degraded) {
		t.Errorf("repository served %d master-copy pages, want ≥ %d", got, degraded)
	}
}

func TestRepositoryMasterCopy(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartCluster(w, model.AllLocal(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	pid := w.Sites[0].Pages[0]
	resp, err := http.Get(cluster.RepoBase + htmlrefs.PagePath(pid))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("master copy: %s, err=%v", resp.Status, err)
	}
	refs := htmlrefs.ParseRefs(doc)
	if len(refs) == 0 {
		t.Fatal("master copy parsed no references")
	}
	for _, r := range refs {
		if url := string(doc[r.Start:r.End]); !strings.HasPrefix(url, cluster.RepoBase) {
			t.Fatalf("master-copy reference %q does not point at the repository", url)
		}
	}
	if got := cluster.Metrics.Counter("repo.page_requests").Value(); got != 1 {
		t.Errorf("repo.page_requests = %d, want 1", got)
	}
}

func TestHealthzEverywhere(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartCluster(w, model.AllLocal(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	bases := append([]string{cluster.RepoBase}, cluster.SiteBases...)
	for _, base := range bases {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("%s/healthz: %v", base, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
			t.Fatalf("%s/healthz: %s %q", base, resp.Status, body)
		}
	}
}

func TestKillAndRestartSite(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartCluster(w, model.AllLocal(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	pid := w.Sites[0].Pages[0]
	client := cluster.Client(quickOpts())
	client.Verify = true

	if err := cluster.KillSite(0); err != nil {
		t.Fatal(err)
	}
	if !cluster.SiteDown(0) {
		t.Fatal("killed site not reported down")
	}
	if _, err := http.Get(cluster.SiteBases[0] + "/healthz"); err == nil {
		t.Fatal("killed site still answers health checks")
	}
	// The page still completes, degraded through the repository.
	res, err := client.FetchPage(cluster.PageURL(pid), pid)
	if err != nil {
		t.Fatalf("page on killed site failed: %v", err)
	}
	if !res.DegradedHTML {
		t.Fatal("page served by a killed site not flagged degraded")
	}

	if err := cluster.RestartSite(0); err != nil {
		t.Fatal(err)
	}
	if cluster.SiteDown(0) {
		t.Fatal("restarted site reported down")
	}
	res, err = client.FetchPage(cluster.PageURL(pid), pid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded() {
		t.Fatalf("restarted site still serving degraded: %+v", res)
	}
	if err := cluster.KillSite(5555); err == nil {
		t.Error("KillSite accepted an out-of-range site")
	}
	if err := cluster.RestartSite(0); err == nil {
		t.Error("RestartSite accepted a running site")
	}
}

// TestGracefulShutdownDrains starts a large transfer, then closes the
// cluster mid-body: the graceful drain must let the response complete
// instead of cutting it, which is exactly what the old hard Close did.
func TestGracefulShutdownDrains(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Sites = 2
	cfg.PagesPerSiteMin, cfg.PagesPerSiteMax = 6, 10
	cfg.GlobalObjects, cfg.ObjectsPerSite, cfg.ObjectsPerMax = 120, 40, 60
	// One big size class so the transfer outlives socket buffering.
	cfg.MOClasses = []workload.SizeClass{{Frac: 1, Lo: 4 * units.MB, Hi: 6 * units.MB}}
	w := workload.MustGenerate(cfg, 66)
	cluster, err := StartCluster(w, model.AllLocal(w))
	if err != nil {
		t.Fatal(err)
	}

	k := w.Sites[0].Objects[0]
	resp, err := http.Get(cluster.SiteBases[0] + htmlrefs.MOPath(k))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read a little, then shut down while the rest is in flight.
	head := make([]byte, 64*1024)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- cluster.Close() }()

	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("in-flight body cut during shutdown: %v", err)
	}
	if got := int64(len(head) + len(rest)); got != int64(w.ObjectSize(k)) {
		t.Fatalf("drained %d bytes, want %d", got, w.ObjectSize(k))
	}
	if err := <-closed; err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	if err := VerifyObject(w, k, append(head, rest...)); err != nil {
		t.Fatal(err)
	}
}

// TestWriteErrorCounters uses the truncation fault — which cuts the
// handler's io.Copy mid-body — to assert write failures are counted rather
// than silently ignored.
func TestWriteErrorCounters(t *testing.T) {
	w := tinyWorkload(t)
	plan := &faults.Plan{Seed: 3, Sites: make([]faults.Spec, w.NumSites())}
	plan.Sites[0] = faults.Spec{TruncateRate: 1}
	cluster, err := StartClusterOptions(w, model.AllLocal(w), ClusterOptions{Metrics: true, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	k := w.Sites[0].Objects[0]
	resp, err := http.Get(cluster.SiteBases[0] + htmlrefs.MOPath(k))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := cluster.Metrics.Counter("site.0.write_errors").Value(); got == 0 {
		t.Fatal("truncated transfer did not count a write error")
	}
	if got := cluster.Metrics.Counter("faults.site.0.injected_truncations").Value(); got == 0 {
		t.Fatal("injected truncation not counted")
	}
}

// TestChaosClusterSurvives runs concurrent resilient clients against a
// cluster under a moderate generated fault plan: every fetch must succeed
// (retried or degraded), race-clean.
func TestChaosClusterSurvives(t *testing.T) {
	w := tinyWorkload(t)
	p := plannedPlacement(t, w)
	plan, err := faults.Generate(1, w.NumSites(), 11)
	if err != nil {
		t.Fatal(err)
	}
	// Rate faults at full strength; latency off to keep the test fast, and
	// outages are tested elsewhere.
	for i := range plan.Sites {
		plan.Sites[i].Latency, plan.Sites[i].LatencyJitter, plan.Sites[i].Outages = 0, 0, nil
	}
	cluster, err := StartClusterOptions(w, p, ClusterOptions{Metrics: true, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	var retries atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := quickOpts()
			opts.Retries = 4
			opts.JitterSeed = uint64(g)
			client := cluster.Client(opts)
			client.Verify = true
			site := g % w.NumSites()
			for i := 0; i < 5; i++ {
				pid := w.Sites[site].Pages[i%len(w.Sites[site].Pages)]
				res, err := client.FetchPage(cluster.PageURL(pid), pid)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d page %d: %w", g, pid, err)
					return
				}
				retries.Add(int64(res.Retries))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := cluster.Metrics.Snapshot()
	_ = snap // counters exist; the headline assertion is zero failed fetches
}

// TestCorruptBodyIsRetriedThenFallsBack pins the satellite contract: a
// body that is not its regeneration is a retryable failure with reason
// "corrupt" — never a success — and degrades to the repository like any
// transient fault.
func TestCorruptBodyIsRetriedThenFallsBack(t *testing.T) {
	w := tinyWorkload(t)
	const k = 0
	good, err := io.ReadAll(ObjectReader(w, RepoSource, k))
	if err != nil {
		t.Fatal(err)
	}
	var primHits atomic.Int64
	primary := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		primHits.Add(1)
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0xFF // persistent corruption: every read is bad
		rw.Write(bad)
	}))
	defer primary.Close()
	fallback := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.Write(good)
	}))
	defer fallback.Close()

	reg := telemetry.NewRegistry()
	c := NewClientOptions(w, ClientOptions{
		Retries:          1,
		BreakerThreshold: -1,
		FallbackBase:     fallback.URL,
		Metrics:          reg,
	})
	c.Verify = true

	n, _, fellBack, err := c.fetchMO(context.Background(), primary.URL+"/mo/0", k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fellBack || n != int64(len(good)) {
		t.Fatalf("corrupt fetch did not degrade cleanly: fellBack=%v", fellBack)
	}
	if got := primHits.Load(); got != 2 {
		t.Errorf("primary hit %d times, want 2 (first try + one retry)", got)
	}
	if got := reg.Counter("client.retries_by.corrupt").Value(); got != 1 {
		t.Errorf("retries_by.corrupt = %d, want 1", got)
	}
	if got := reg.Counter("client.fallbacks_by.corrupt").Value(); got != 1 {
		t.Errorf("fallbacks_by.corrupt = %d, want 1", got)
	}
}
