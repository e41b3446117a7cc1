// Trace analysis: regression-testing replication policies offline. A
// recorded trace pins the traffic *and* the per-request network conditions,
// so two policy versions can be compared on identical inputs — the workflow a
// team would use in CI to catch placement regressions before deploying a
// planner change.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	w := repro.MustGenerateWorkload(repro.SmallWorkloadConfig(), 11)
	est, err := repro.DrawEstimates(repro.DefaultNetConfig(), w.NumSites(), repro.NewStream(11))
	if err != nil {
		log.Fatal(err)
	}

	// Record one trace; every policy below is replayed over it.
	cfg := repro.DefaultSimConfig(w)
	cfg.RequestsPerSite = 800
	trace, err := repro.RecordTrace(w, est, cfg, repro.NewStream(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded trace: %d sites × %d views\n\n", w.NumSites(), cfg.RequestsPerSite)

	// "Current" policy: the full planner at 50 % storage.
	budgets := repro.FullBudgets(w).Scale(w, 0.5, 1)
	env, err := repro.NewEnv(w, est, budgets)
	if err != nil {
		log.Fatal(err)
	}
	current, _, err := repro.Plan(env, repro.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// "Candidate" policy: the planner with the size-sort ablated — the kind
	// of simplification someone might propose; the trace replay shows what
	// it costs before it ships.
	candidate, _, err := repro.Plan(env, repro.PlanOptions{UnsortedPartition: true})
	if err != nil {
		log.Fatal(err)
	}

	measure := func(name string, p *repro.Placement) float64 {
		res, err := repro.ReplayTrace(w, trace, repro.NewStaticPolicy(name, p), cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s composite %8.2fs   (page %8.2fs, local/repo req %d/%d)\n",
			name, res.CompositeMean(), res.PageRT.Mean(), res.LocalRequests, res.RepoRequests)
		return res.CompositeMean()
	}

	cur := measure("current planner", current)
	cand := measure("candidate (no sort)", candidate)

	fmt.Println()
	delta := (cand/cur - 1) * 100
	if delta > 0.5 {
		fmt.Printf("-> candidate regresses response time by %+.2f%% on the pinned trace; reject.\n", delta)
	} else {
		fmt.Printf("-> candidate within %+.2f%% of current on the pinned trace.\n", delta)
	}

	// The migration such a swap would cost, for completeness.
	diff, err := repro.DiffPlacements(current, candidate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   applying it would move %v into the sites and free %v.\n",
		diff.TotalAddedBytes(), diff.TotalRemovedBytes())
}
