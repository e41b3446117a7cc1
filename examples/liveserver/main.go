// Live server walk-through: the Section-2 mechanics made visible. Starts
// the repository and the local sites as real HTTP servers, shows how the
// same stored HTML is rewritten on the fly under two different plans, and
// lets the client observe the parallel local/repository split change.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
	"repro/internal/htmlrefs"
	"repro/internal/webserve"
)

func main() {
	cfg := repro.SmallWorkloadConfig()
	cfg.Sites = 2
	cfg.PagesPerSiteMin, cfg.PagesPerSiteMax = 8, 12
	cfg.GlobalObjects, cfg.ObjectsPerSite, cfg.ObjectsPerMax = 150, 50, 80
	w := repro.MustGenerateWorkload(cfg, 7)

	// Start with everything on the repository.
	cluster, err := webserve.StartCluster(w, repro.AllRemote(w))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	pid := w.Sites[0].Pages[0]
	client := webserve.NewClient(w)

	fmt.Printf("page W%d lives at %s\n\n", pid, cluster.PageURL(pid))

	show := func(label string) {
		res, err := client.FetchPage(cluster.PageURL(pid), pid)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s local chain: %2d objects (%6.1f KB)   repository chain: %2d objects (%6.1f KB)\n",
			label,
			res.LocalChain.Objects, float64(res.LocalChain.Bytes)/1024,
			res.RemoteChain.Objects, float64(res.RemoteChain.Bytes)/1024)
	}

	show("all-remote plan:")

	// Plan properly and apply it live — same stored HTML, new rewrite.
	est, err := repro.DrawEstimates(repro.DefaultNetConfig(), w.NumSites(), repro.NewStream(7))
	if err != nil {
		log.Fatal(err)
	}
	env, err := repro.NewEnv(w, est, repro.FullBudgets(w))
	if err != nil {
		log.Fatal(err)
	}
	placement, _, err := repro.Plan(env, repro.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.ApplyPlan(w, placement); err != nil {
		log.Fatal(err)
	}
	show("after planning (balanced):")

	if err := cluster.ApplyPlan(w, repro.AllLocal(w)); err != nil {
		log.Fatal(err)
	}
	show("all-local plan:")

	// Peek at the rewriting itself: the first MO URL under each plan.
	fmt.Println("\nthe served HTML changes with the plan (first MO reference):")
	doc, err := client.GetDoc(cluster.PageURL(pid))
	if err != nil {
		log.Fatal(err)
	}
	refs := htmlrefs.ParseRefs(doc)
	if len(refs) > 0 {
		fmt.Printf("  now:  %s\n", string(doc[refs[0].Start:refs[0].End]))
	}
	fmt.Printf("  (all URLs point at %s — the local site — under the all-local plan)\n",
		strings.TrimPrefix(cluster.SiteBases[0], "http://"))
}
