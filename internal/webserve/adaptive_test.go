package webserve

import (
	"testing"

	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestAdaptiveReplanLoop exercises the paper's full operational cycle
// (Sections 2 + 4.1) over the real HTTP stack: serve traffic, collect
// access statistics at the local servers, estimate frequencies, re-plan,
// and apply the new placement live. The check: after traffic shifts to a
// new hot set, the re-planned placement stores the newly-hot pages'
// objects at the site while the stale plan (built for the old traffic,
// under tight storage) does not.
func TestAdaptiveReplanLoop(t *testing.T) {
	w := tinyWorkload(t)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(66))
	if err != nil {
		t.Fatal(err)
	}

	// Tight storage so placements are selective.
	budget := model.FullBudgets(w).Scale(w, 0.3, 1)
	env, err := model.NewEnv(w, est, budget)
	if err != nil {
		t.Fatal(err)
	}
	stale, _, err := corePlan(env)
	if err != nil {
		t.Fatal(err)
	}

	tap := &countingTap{counts: estimate.Counts{}}
	cluster, err := StartClusterOptions(w, stale, ClusterOptions{AccessTap: tap})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := NewClient(w)

	// Drifted traffic: hammer the pages the stale plan considered cold.
	// Pick the site-0 pages with the lowest original frequency.
	site0 := cluster.Sites[0]
	pages := w.Sites[0].Pages
	var coldest workload.PageID = pages[0]
	for _, pid := range pages {
		if w.Pages[pid].Freq < w.Pages[coldest].Freq {
			coldest = pid
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := client.FetchPage(cluster.PageURL(coldest), coldest); err != nil {
			t.Fatal(err)
		}
	}
	// A little background traffic on everything else.
	for _, pid := range pages {
		if _, err := client.FetchPage(cluster.PageURL(pid), pid); err != nil {
			t.Fatal(err)
		}
	}

	// Collect statistics and estimate the new workload.
	counts := tap.counts
	observed, err := estimate.EstimateWorkload(w, counts)
	if err != nil {
		t.Fatal(err)
	}
	if !observed.Pages[coldest].Hot {
		t.Fatalf("page %d drew %d requests yet is not estimated hot",
			coldest, counts[coldest])
	}

	// Re-plan against the estimated frequencies and apply it live.
	envNew, err := model.NewEnv(observed, est, budget)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := corePlan(envNew)
	if err != nil {
		t.Fatal(err)
	}
	if err := site0.Rehome(w, fresh); err != nil {
		t.Fatal(err)
	}

	// The freshly-hot page must now be served better than under the stale
	// plan: more of its compulsory objects local.
	localUnder := func(p *model.Placement) int {
		n := 0
		for idx := range w.Pages[coldest].Compulsory {
			if p.CompLocal(coldest, idx) {
				n++
			}
		}
		return n
	}
	if localUnder(fresh) < localUnder(stale) {
		t.Errorf("re-planning made the hot page worse: %d local vs %d",
			localUnder(fresh), localUnder(stale))
	}
	// And the cluster must actually serve it that way.
	res, err := client.FetchPage(cluster.PageURL(coldest), coldest)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalChain.Objects != localUnder(fresh) {
		t.Errorf("cluster serves %d local objects, placement says %d",
			res.LocalChain.Objects, localUnder(fresh))
	}
}
