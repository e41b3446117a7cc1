package webserve

import (
	"sync"
	"testing"

	"repro/internal/estimate"
	"repro/internal/workload"
)

// TestAccessTapFeedsEstimator exercises the live access-log tap under
// concurrent load: a cluster started with ClusterOptions.AccessTap must
// deliver exactly one estimator observation per served page view, from
// every serving goroutine, without races (the -race CI stages run this)
// and in agreement with the servers' own page-request counters.
func TestAccessTapFeedsEstimator(t *testing.T) {
	w := tinyWorkload(t)
	// Enormous half-life so weights are effectively raw counts and can be
	// compared against the servers' integer counters.
	est, err := estimate.New(w, estimate.Config{HalfLife: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := StartClusterOptions(w, plannedPlacement(t, w), ClusterOptions{AccessTap: est})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Concurrent clients hammering every site's pages.
	const clients = 8
	const rounds = 5
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := NewClient(w)
			for r := 0; r < rounds; r++ {
				for i := range w.Sites {
					for _, pid := range w.Sites[i].Pages {
						if _, err := client.FetchPage(cluster.PageURL(pid), pid); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	snap := est.Snapshot(1e6)
	for i := range cluster.Sites {
		servedTotal := cluster.Metrics.Counter(siteCounterPrefix(i) + "page_requests").Value()
		var estimated int64
		for _, se := range snap.Sites {
			if se.Site != workload.SiteID(i) {
				continue
			}
			for _, pw := range se.Pages {
				// Round the decayed weight back to an integer count; with the
				// huge half-life decay is negligible over the test's runtime.
				estimated += int64(pw.Weight + 0.5)
			}
		}
		if servedTotal == 0 {
			t.Fatalf("site %d served nothing", i)
		}
		if estimated != servedTotal {
			t.Errorf("site %d: estimator saw %d views, server counted %d", i, estimated, servedTotal)
		}
	}
}
