// Off-loading walk-through: what happens when the repository cannot serve
// all the requests the sites' plans direct at it. The example constrains
// the repository to 60 % of its pre-offload load and prints the actual
// OFF_LOADING_REPOSITORY message exchange from Section 4.2 — the status
// collection, the L1/L2 classification, the proportional NewReq quotas,
// the sites' accept/decline answers and the L3 demotions.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	w := repro.MustGenerateWorkload(repro.SmallWorkloadConfig(), 7)
	est, err := repro.DrawEstimates(repro.DefaultNetConfig(), w.NumSites(), repro.NewStream(7))
	if err != nil {
		log.Fatal(err)
	}

	// Probe: how much load would land on the repository if it were
	// unconstrained? Tighten the sites a little so a realistic share of
	// downloads is remote.
	budgets := repro.FullBudgets(w).Scale(w, 0.6, 0.6)
	probeEnv, err := repro.NewEnv(w, est, budgets)
	if err != nil {
		log.Fatal(err)
	}
	probe, _, err := repro.Plan(probeEnv, repro.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	pre := repro.Evaluate(probeEnv, probe).RepoLoad
	fmt.Printf("pre-offload repository load: %.2f req/s\n", float64(pre))

	// Now the repository can serve only 60 % of that.
	budgets.RepoCapacity = repro.ReqPerSec(float64(pre) * 0.6)
	fmt.Printf("constraining C(R) to %.2f req/s — off-loading will negotiate:\n\n", float64(budgets.RepoCapacity))

	env, err := repro.NewEnv(w, est, budgets)
	if err != nil {
		log.Fatal(err)
	}
	placement, result, err := repro.Plan(env, repro.PlanOptions{MessageLog: os.Stdout})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	off := result.Offload
	fmt.Printf("negotiation: %d rounds, %d messages, %.2f req/s moved to the sites,\n",
		off.Rounds, off.Messages, float64(off.MovedLocal))
	fmt.Printf("%d new replicas created, %d swapped; constraint restored: %v\n",
		off.NewReplicas, off.Swaps, off.Restored)

	report := repro.Evaluate(env, placement)
	fmt.Printf("\nfinal repository load %.2f req/s ≤ capacity %.2f req/s: %v\n",
		float64(report.RepoLoad), float64(report.RepoCap), report.RepoOK())
}
