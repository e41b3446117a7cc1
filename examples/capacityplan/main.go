// Capacity planning: given a response-time SLA expressed as "at most X %
// above the unconstrained optimum", find the smallest per-site storage
// budget that meets it. This is the Figure-1 sweep used as a sizing tool —
// the planner/simulator pair answers provisioning questions the paper's
// evaluation only plots.
package main

import (
	"fmt"
	"log"

	"repro"
)

const slaPct = 10.0 // tolerate at most +10 % over the unconstrained optimum

func main() {
	w := repro.MustGenerateWorkload(repro.SmallWorkloadConfig(), 99)
	est, err := repro.DrawEstimates(repro.DefaultNetConfig(), w.NumSites(), repro.NewStream(99))
	if err != nil {
		log.Fatal(err)
	}

	cfg := repro.DefaultSimConfig(w)
	cfg.RequestsPerSite = 800

	simulate := func(storageFrac float64) (float64, repro.ByteSize) {
		budgets := repro.FullBudgets(w).Scale(w, storageFrac, 1)
		env, err := repro.NewEnv(w, est, budgets)
		if err != nil {
			log.Fatal(err)
		}
		placement, _, err := repro.Plan(env, repro.PlanOptions{})
		if err != nil {
			log.Fatal(err)
		}
		res, err := repro.Simulate(w, est, repro.NewStaticPolicy("Proposed", placement), cfg, repro.NewStream(3))
		if err != nil {
			log.Fatal(err)
		}
		var maxStore repro.ByteSize
		for i := 0; i < w.NumSites(); i++ {
			if used := placement.StorageUsed(repro.SiteID(i)); used > maxStore {
				maxStore = used
			}
		}
		return res.CompositeMean(), maxStore
	}

	base, _ := simulate(1.0)
	fmt.Printf("unconstrained composite response time: %.1fs\n", base)
	fmt.Printf("SLA: at most +%.0f%% -> %.1fs\n\n", slaPct, base*(1+slaPct/100))

	fmt.Printf("%-10s %-14s %-12s %s\n", "storage", "response", "vs optimum", "max site bytes")
	chosen, found := 1.0, false
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		rt, bytes := simulate(frac)
		rel := (rt/base - 1) * 100
		marker := ""
		if rel <= slaPct && !found && frac < 1.0 {
			chosen, found = frac, true
			marker = "  <- smallest meeting SLA"
		}
		fmt.Printf("%8.0f%%  %10.1fs  %+9.1f%%  %v%s\n", frac*100, rt, rel, bytes, marker)
	}
	fmt.Printf("\nprovision %.0f%% of the full mirror per site.\n", chosen*100)
}
