package webserve

import (
	"context"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/htmlrefs"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// corePlan plans with the full algorithm (indirection keeps the test body
// terse).
func corePlan(env *model.Env) (*model.Placement, *core.Result, error) {
	return core.Plan(env, core.Options{Workers: 1})
}

// tinyWorkload keeps object sizes small so integration tests move little
// data over loopback.
func tinyWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	cfg := workload.SmallConfig()
	cfg.Sites = 2
	cfg.PagesPerSiteMin = 6
	cfg.PagesPerSiteMax = 10
	cfg.GlobalObjects = 120
	cfg.ObjectsPerSite = 40
	cfg.ObjectsPerMax = 60
	cfg.MOClasses = []workload.SizeClass{
		{Frac: 0.5, Lo: 2 * units.KB, Hi: 8 * units.KB},
		{Frac: 0.5, Lo: 8 * units.KB, Hi: 32 * units.KB},
	}
	return workload.MustGenerate(cfg, 66)
}

func plannedPlacement(t *testing.T, w *workload.Workload) *model.Placement {
	t.Helper()
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(66))
	if err != nil {
		t.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := corePlan(env)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestObjectReaderAndVerify(t *testing.T) {
	w := tinyWorkload(t)
	for k := 0; k < 5; k++ {
		id := workload.ObjectID(k)
		data, err := io.ReadAll(ObjectReader(w, RepoSource, id))
		if err != nil {
			t.Fatal(err)
		}
		if units.ByteSize(len(data)) != w.ObjectSize(id) {
			t.Fatalf("object %d: %d bytes, want %d", k, len(data), w.ObjectSize(id))
		}
		if err := VerifyObject(w, id, data); err != nil {
			t.Fatal(err)
		}
		// Corruption is detected.
		data[len(data)/2] ^= 0xFF
		if err := VerifyObject(w, id, data); err == nil {
			t.Fatal("corruption not detected")
		}
		// Wrong length is detected.
		if err := VerifyObject(w, id, data[:len(data)-1]); err == nil {
			t.Fatal("truncation not detected")
		}
	}
}

func TestObjectsDiffer(t *testing.T) {
	w := tinyWorkload(t)
	a, _ := io.ReadAll(ObjectReader(w, RepoSource, 0))
	b, _ := io.ReadAll(ObjectReader(w, RepoSource, 1))
	if len(a) == len(b) && string(a) == string(b) {
		t.Error("distinct objects have identical content")
	}
}

func TestClusterEndToEnd(t *testing.T) {
	w := tinyWorkload(t)
	p := plannedPlacement(t, w)
	cluster, err := StartCluster(w, p)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	client := NewClient(w)
	client.Verify = true

	checked := 0
	for _, site := range cluster.Sites {
		for _, pid := range w.Sites[site.Site()].Pages[:2] {
			res, err := client.FetchPage(cluster.PageURL(pid), pid)
			if err != nil {
				t.Fatal(err)
			}
			// The split the client observed must match the placement.
			wantLocal, wantRemote := 0, 0
			for idx := range w.Pages[pid].Compulsory {
				if p.CompLocal(pid, idx) {
					wantLocal++
				} else {
					wantRemote++
				}
			}
			if res.LocalChain.Objects != wantLocal || res.RemoteChain.Objects != wantRemote {
				t.Fatalf("page %d: client saw %d/%d local/remote, placement says %d/%d",
					pid, res.LocalChain.Objects, res.RemoteChain.Objects, wantLocal, wantRemote)
			}
			if res.HTMLBytes == 0 || res.Elapsed <= 0 {
				t.Fatal("page download empty")
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no pages checked")
	}
	if cluster.Metrics.Counter("repo.mo_requests").Value() == 0 {
		t.Error("repository served nothing — unexpected for a planned split")
	}
}

func TestLocalServer404ForUnstored(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartCluster(w, model.AllRemote(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Nothing is stored: every local MO request must 404 …
	anyObj := w.Sites[0].Objects[0]
	resp, err := http.Get(cluster.SiteBases[0] + htmlrefs.MOPath(anyObj))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unstored MO served with %s", resp.Status)
	}
	// … while the repository serves it.
	resp, err = http.Get(cluster.RepoBase + htmlrefs.MOPath(anyObj))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("repository refused object: %s", resp.Status)
	}
}

func TestApplyPlacementLive(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartCluster(w, model.AllRemote(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	client := NewClient(w)
	pid := w.Sites[0].Pages[0]

	res, err := client.FetchPage(cluster.PageURL(pid), pid)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalChain.Objects != 0 {
		t.Fatalf("all-remote cluster served %d objects locally", res.LocalChain.Objects)
	}

	// Swap in the all-local placement on site 0 — a live plan refresh.
	if err := cluster.Sites[0].Rehome(w, model.AllLocal(w)); err != nil {
		t.Fatal(err)
	}
	res, err = client.FetchPage(cluster.PageURL(pid), pid)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteChain.Objects != 0 {
		t.Fatalf("after refresh %d objects still remote", res.RemoteChain.Objects)
	}
	if res.LocalChain.Objects != len(w.Pages[pid].Compulsory) {
		t.Fatalf("local chain has %d objects, want %d", res.LocalChain.Objects, len(w.Pages[pid].Compulsory))
	}
}

// countingTap is the simplest access tap: raw per-page view counts.
type countingTap struct {
	mu     sync.Mutex
	counts estimate.Counts
}

func (c *countingTap) Observe(_ workload.SiteID, page workload.PageID, _ float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[page]++
}

func TestAccessCounters(t *testing.T) {
	w := tinyWorkload(t)
	tap := &countingTap{counts: estimate.Counts{}}
	cluster, err := StartClusterOptions(w, model.AllLocal(w), ClusterOptions{AccessTap: tap})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	client := NewClient(w)
	pid := w.Sites[0].Pages[0]
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := client.FetchPage(cluster.PageURL(pid), pid); err != nil {
			t.Fatal(err)
		}
	}
	if got := cluster.Metrics.Counter("site.0.page_requests").Value(); got != n {
		t.Errorf("page requests = %d, want %d", got, n)
	}
	if tap.counts[pid] != n || len(tap.counts) != 1 {
		t.Errorf("tap saw %d views of page %d across %d pages, want %d of 1 page", tap.counts[pid], pid, len(tap.counts), n)
	}
	if cluster.Metrics.Counter("site.0.mo_requests").Value() == 0 {
		t.Error("no local MO requests recorded under all-local")
	}
}

func TestOptionalFetch(t *testing.T) {
	w := tinyWorkload(t)
	// Find a page with optional links.
	var pid workload.PageID = -1
	for j := range w.Pages {
		if len(w.Pages[j].Optional) > 0 {
			pid = workload.PageID(j)
			break
		}
	}
	if pid < 0 {
		t.Skip("tiny workload drew no optional pages")
	}
	cluster, err := StartCluster(w, model.AllRemote(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	client := NewClient(w)
	client.Verify = true
	res, err := client.FetchPage(cluster.PageURL(pid), pid)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LocalChain.Objects + res.RemoteChain.Objects; got != len(w.Pages[pid].Compulsory) {
		t.Fatalf("page fetched %d objects, want only its %d compulsory ones", got, len(w.Pages[pid].Compulsory))
	}
	// Fetch one optional object through the document's own link.
	doc, _, _, err := client.get(context.Background(), cluster.PageURL(pid), "", keepDoc)
	if err != nil {
		t.Fatal(err)
	}
	var optional int
	for _, r := range htmlrefs.ParseRefs(doc) {
		if !r.Optional {
			continue
		}
		if optional++; optional > 1 {
			continue
		}
		n, _, _, err := client.fetchMO(context.Background(), string(doc[r.Start:r.End]), r.Object, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(w.ObjectSize(r.Object)) {
			t.Fatalf("optional object %d: read %d bytes, want %d", r.Object, n, w.ObjectSize(r.Object))
		}
	}
	if optional != len(w.Pages[pid].Optional) {
		t.Fatalf("document links %d optional objects, want %d", optional, len(w.Pages[pid].Optional))
	}
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"http://127.0.0.1:8080/mo/3": "http://127.0.0.1:8080",
		"http://host/page/1":         "http://host",
		"http://host":                "http://host",
		"nonsense":                   "",
	}
	for in, want := range cases {
		if got := hostOf(in); got != want {
			t.Errorf("hostOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// BenchmarkLiveFetch measures one end-to-end page download through the real
// HTTP stack (loopback): HTML with on-the-fly rewrite, then the two
// parallel chains.
func BenchmarkLiveFetch(b *testing.B) {
	cfg := workload.SmallConfig()
	cfg.Sites = 2
	cfg.PagesPerSiteMin, cfg.PagesPerSiteMax = 6, 10
	cfg.GlobalObjects, cfg.ObjectsPerSite, cfg.ObjectsPerMax = 120, 40, 60
	cfg.MOClasses = []workload.SizeClass{{Frac: 1, Lo: 2 * units.KB, Hi: 16 * units.KB}}
	w := workload.MustGenerate(cfg, 66)
	cluster, err := StartCluster(w, model.AllLocal(w))
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	client := NewClient(w)
	pid := w.Sites[0].Pages[0]
	url := cluster.PageURL(pid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.FetchPage(url, pid); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConcurrentClients hammers the cluster from several goroutines across
// sites while a plan refresh happens mid-flight — run under -race in CI.
func TestConcurrentClients(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartCluster(w, model.AllRemote(w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := NewClient(w)
			site := g % w.NumSites()
			for i := 0; i < 5; i++ {
				pid := w.Sites[site].Pages[i%len(w.Sites[site].Pages)]
				if _, err := client.FetchPage(cluster.PageURL(pid), pid); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// Concurrent plan refresh on every site.
	wg.Add(1)
	go func() {
		defer wg.Done()
		fresh := model.AllLocal(w)
		for _, s := range cluster.Sites {
			if err := s.Rehome(w, fresh); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
