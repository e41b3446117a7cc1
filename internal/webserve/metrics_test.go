package webserve

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"testing"

	"repro/internal/telemetry"
)

// fetchSnapshot GETs base/metrics and decodes the JSON snapshot.
func fetchSnapshot(t *testing.T, base string) *telemetry.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// TestMetricsEndpoint is the golden /metrics test over real loopback HTTP:
// fetch pages through the actual servers, then assert the JSON snapshot's
// per-site counters reconcile exactly with what the client observed.
func TestMetricsEndpoint(t *testing.T) {
	w := tinyWorkload(t)
	p := plannedPlacement(t, w)
	cluster, err := StartClusterOptions(w, p, ClusterOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if cluster.Metrics == nil {
		t.Fatal("Metrics option did not populate cluster.Metrics")
	}

	client := NewClient(w)
	client.Verify = true
	pagesPerSite := make([]int64, w.NumSites())
	localPerSite := make([]int64, w.NumSites())
	var remoteObjs int64
	for site := range w.Sites {
		for _, pid := range w.Sites[site].Pages[:3] {
			res, err := client.FetchPage(cluster.PageURL(pid), pid)
			if err != nil {
				t.Fatal(err)
			}
			pagesPerSite[site]++
			localPerSite[site] += int64(res.LocalChain.Objects)
			remoteObjs += int64(res.RemoteChain.Objects)
		}
	}

	// The endpoint must be live on the repository and on every site server,
	// all serving the same cluster-wide registry.
	snap := fetchSnapshot(t, cluster.RepoBase)
	siteSnap := fetchSnapshot(t, cluster.SiteBases[0])
	if snap.CounterValue("repo.mo_requests") != siteSnap.CounterValue("repo.mo_requests") {
		t.Error("repository and site servers disagree on the shared registry")
	}

	var totalPages, wantPages int64
	for site := range w.Sites {
		prefix := siteCounterPrefix(site)
		if got := snap.CounterValue(prefix + "page_requests"); got != pagesPerSite[site] {
			t.Errorf("site %d page_requests = %d, want %d", site, got, pagesPerSite[site])
		}
		if got := snap.CounterValue(prefix + "mo_requests"); got != localPerSite[site] {
			t.Errorf("site %d mo_requests = %d, want %d local objects", site, got, localPerSite[site])
		}
		if localPerSite[site] > 0 && snap.CounterValue(prefix+"bytes") == 0 {
			t.Errorf("site %d served objects but counted no bytes", site)
		}
		if got := snap.CounterValue(prefix + "misses"); got != 0 {
			t.Errorf("site %d misses = %d under a verified planned fetch", site, got)
		}
		totalPages += snap.CounterValue(prefix + "page_requests")
		wantPages += pagesPerSite[site]
	}
	if totalPages != wantPages {
		t.Errorf("page_requests sum to %d, want %d fetched pages", totalPages, wantPages)
	}
	if got := snap.CounterValue("repo.mo_requests"); got != remoteObjs {
		t.Errorf("repo.mo_requests = %d, want %d remote objects", got, remoteObjs)
	}
	if remoteObjs > 0 && snap.CounterValue("repo.bytes") == 0 {
		t.Error("repository served objects but counted no bytes")
	}

	// Snapshots are name-sorted so the encoding is deterministic.
	if !sort.SliceIsSorted(snap.Counters, func(i, j int) bool {
		return snap.Counters[i].Name < snap.Counters[j].Name
	}) {
		t.Error("snapshot counters not sorted by name")
	}

	// A bogus request must count as a miss without disturbing the rest.
	resp, err := http.Get(cluster.SiteBases[0] + "/mo/999999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus object: %s", resp.Status)
	}
	after := fetchSnapshot(t, cluster.RepoBase)
	if got := after.CounterValue(siteCounterPrefix(0) + "misses"); got != 1 {
		t.Errorf("site 0 misses after bogus request = %d, want 1", got)
	}
}

// TestMetricsDisabledByDefault keeps the default honest: a plain
// StartCluster counts into its registry but mounts no /metrics route (and
// so no mux on the serving path).
func TestMetricsDisabledByDefault(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartCluster(w, plannedPlacement(t, w))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	resp, err := http.Get(cluster.RepoBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("/metrics served without the Metrics option")
	}
	if got := cluster.Metrics.Counter("repo.misses").Value(); got != 1 {
		t.Errorf("repo.misses = %d after the 404, want 1: the registry counts without being exported", got)
	}
}

// TestPprofEndpoint checks the profiling mux is mounted beside /metrics.
func TestPprofEndpoint(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartClusterOptions(w, plannedPlacement(t, w), ClusterOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	resp, err := http.Get(cluster.RepoBase + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: %s", resp.Status)
	}
}
