// Command replsim runs one full simulation: it generates (or loads) a
// workload, plans the proposed policy under the given budgets (or loads a
// saved placement), simulates every policy of the paper's comparison —
// Proposed, ideal LRU, Local, Remote — over identical request streams, and
// prints the response-time comparison.
//
// Usage:
//
//	replsim [-w workload.json] [-p placement.json] [-seed N]
//	        [-scale paper|small] [-storage F] [-capacity F]
//	        [-requests N] [-queueing] [-percentiles]
//	        [-outage AVAIL] [-failover SECS] [-spans FILE]
//
// With -spans the Proposed policy's run records its span forest — one trace
// per page view, chains split by transfer/queue/overhead — followed by the
// simulated placement's Eq. 5 prediction for every page, and writes it as
// JSONL for cmd/repltrace; the export is byte-deterministic for a seed.
//
// With -outage each page view finds its local site down with probability
// 1-AVAIL and is served entirely by the repository (degraded mode), paying
// -failover seconds of detection cost; the comparison then reports how many
// views each policy served degraded.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro"
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replsim", flag.ContinueOnError)
	wpath := fs.String("w", "", "workload JSON (from replgen); generated when empty")
	seed := fs.Uint64("seed", 2026, "seed for generation, estimates and traffic")
	scale := fs.String("scale", "paper", "workload scale when generating: paper or small")
	storage := fs.Float64("storage", 1, "storage budget fraction")
	capacity := fs.Float64("capacity", 1, "site capacity fraction")
	requests := fs.Int("requests", 0, "page requests per site (0 = workload default)")
	queueing := fs.Bool("queueing", false, "enable the server-occupancy queueing extension")
	ppath := fs.String("p", "", "simulate this saved placement (from replplan -o) instead of re-planning")
	percentiles := fs.Bool("percentiles", false, "also report p50/p90/p99 page response times")
	bySite := fs.Bool("by-site", false, "also break the proposed policy's page response times down per site")
	outage := fs.Float64("outage", -1, "site availability in [0,1]; arms degraded mode (negative = off)")
	failover := fs.Float64("failover", 0.25, "failover delay per degraded view, seconds (with -outage)")
	spansPath := fs.String("spans", "", "record the Proposed policy's span forest to this JSONL file (analyze with repltrace)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var w *repro.Workload
	var err error
	if *wpath != "" {
		w, err = repro.LoadWorkload(*wpath)
	} else {
		var cfg repro.WorkloadConfig
		if cfg, err = repro.WorkloadScale(*scale); err == nil {
			w, err = repro.GenerateWorkload(cfg, *seed)
		}
	}
	if err != nil {
		return err
	}

	env, err := repro.PlanningEnv(w, *seed, *storage, *capacity)
	if err != nil {
		return err
	}
	var placement *repro.Placement
	if *ppath != "" {
		placement, err = repro.LoadPlacement(w, *ppath)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded placement from %s\n\n", *ppath)
	} else {
		var planResult *repro.PlanResult
		placement, planResult, err = repro.Plan(env, repro.PlanOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "planned: D=%.2f feasible=%v\n\n", planResult.D, planResult.Feasible)
	}

	cfg := repro.DefaultSimConfig(w)
	if *requests > 0 {
		cfg.RequestsPerSite = *requests
	}
	cfg.Queueing = *queueing
	if *outage >= 0 {
		cfg.Outage = repro.OutageConfig{
			Enabled:       true,
			Availability:  *outage,
			FailoverDelay: repro.Seconds(*failover),
		}
		fmt.Fprintf(stdout, "degraded mode: site availability %.2f, failover delay %.2fs\n\n", *outage, *failover)
	}

	lru, err := repro.NewLRUPolicy(w, env.Budgets, *seed)
	if err != nil {
		return err
	}

	type entry struct {
		pol  repro.Policy
		warm bool
	}
	entries := []entry{
		{repro.NewStaticPolicy("Proposed", placement), false},
		{lru, true},
		{repro.NewLocalPolicy(w), false},
		{repro.NewRemotePolicy(w), false},
	}

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	header := "policy\tmean page RT\tmean optional/view\tcomposite\tlocal req\trepo req"
	if *outage >= 0 {
		header += "\tdegraded"
	}
	if *percentiles {
		header += "\tp50\tp90\tp99"
	}
	fmt.Fprintln(tw, header)
	var base float64
	var proposed *repro.SimResult
	for i, e := range entries {
		simCfg := cfg
		simCfg.Warmup = e.warm
		simCfg.RetainSamples = *percentiles
		if i == 0 && *spansPath != "" {
			simCfg.Trace = repro.NewSpanBuffer(0)
		}
		res, err := repro.Simulate(w, env.Est, e.pol, simCfg, repro.NewStream(*seed+1))
		if err != nil {
			return err
		}
		comp := res.CompositeMean()
		if i == 0 {
			base = comp
		}
		fmt.Fprintf(tw, "%s\t%.2fs\t%.2fs\t%.2fs (%+.1f%%)\t%d\t%d",
			res.Policy, res.PageRT.Mean(), res.OptPerView.Mean(), comp,
			(comp/base-1)*100, res.LocalRequests, res.RepoRequests)
		if *outage >= 0 {
			fmt.Fprintf(tw, "\t%d", res.DegradedViews)
		}
		if *percentiles {
			fmt.Fprintf(tw, "\t%.0fs\t%.0fs\t%.0fs",
				res.Samples.Percentile(0.50), res.Samples.Percentile(0.90), res.Samples.Percentile(0.99))
		}
		fmt.Fprintln(tw)
		if i == 0 {
			proposed = res
			if simCfg.Trace != nil {
				spans := append(simCfg.Trace.Spans(), repro.PredictSpans(env, placement)...)
				if err := repro.SaveSpans(*spansPath, spans); err != nil {
					return err
				}
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if *spansPath != "" {
		fmt.Fprintf(stdout, "\nspan forest written to %s (repltrace -i %s)\n", *spansPath, *spansPath)
	}
	if *bySite && proposed != nil {
		fmt.Fprintln(stdout, "\nper-site breakdown (Proposed):")
		for si := range proposed.SitePageRT {
			acc := &proposed.SitePageRT[si]
			fmt.Fprintf(stdout, "  site %2d: mean %8.2fs over %d views\n", si, acc.Mean(), acc.N())
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "replsim: %v\n", err)
		os.Exit(1)
	}
}
