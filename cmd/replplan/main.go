// Command replplan runs the paper's replication planner — PARTITION,
// storage/processing constraint restoration and the repository off-loading
// negotiation — over a workload and prints the placement report and the
// constraint status of Eqs. 8-10.
//
// Usage:
//
//	replplan [-w workload.json] [-seed N] [-scale paper|small]
//	         [-storage F] [-capacity F] [-repo F] [-workers N]
//	         [-verbose] [-trace] [-o placement.json]
//
// -storage and -capacity scale the sites' budgets (1 = 100 %); -repo caps
// the repository at that fraction of the workload the sites' pre-offload
// plans would impose (0 = unconstrained), activating the negotiation, whose
// messages -verbose prints. -o saves the placement for replsim -p.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replplan", flag.ContinueOnError)
	wpath := fs.String("w", "", "workload JSON (from replgen); generated when empty")
	seed := fs.Uint64("seed", 2026, "seed for generation and estimates")
	scale := fs.String("scale", "paper", "workload scale when generating: paper or small")
	storage := fs.Float64("storage", 1, "storage budget fraction (MO part)")
	capacity := fs.Float64("capacity", 1, "site processing capacity fraction")
	repo := fs.Float64("repo", 0, "repository capacity as a fraction of the pre-offload load; 0 = unconstrained")
	workers := fs.Int("workers", 0, "planning worker pool size; 0 = GOMAXPROCS, 1 = sequential (identical plan either way)")
	verbose := fs.Bool("verbose", false, "print the off-loading protocol messages")
	trace := fs.Bool("trace", false, "print the per-phase planner span tree (wall and busy time, dealloc/flip/round/message counters)")
	out := fs.String("o", "", "write the planned placement as JSON to this path (replayable by replsim -p)")
	explain := fs.Int("explain", -1, "print the decision rationale for this page ID")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var w *repro.Workload
	var err error
	if *wpath != "" {
		w, err = repro.LoadWorkload(*wpath)
	} else {
		cfg := repro.DefaultWorkloadConfig()
		if *scale == "small" {
			cfg = repro.SmallWorkloadConfig()
		}
		w, err = repro.GenerateWorkload(cfg, *seed)
	}
	if err != nil {
		return err
	}

	est, err := repro.DrawEstimates(repro.DefaultNetConfig(), w.NumSites(), repro.NewStream(*seed))
	if err != nil {
		return err
	}

	budgets := repro.FullBudgets(w).Scale(w, *storage, *capacity)
	budgets.RepoCapacity = repro.InfiniteCapacity()

	if *repo > 0 {
		// Probe: plan with an unconstrained repository to size C(R).
		probeEnv, err := repro.NewEnv(w, est, budgets)
		if err != nil {
			return err
		}
		pp, _, err := repro.Plan(probeEnv, repro.PlanOptions{Workers: *workers})
		if err != nil {
			return err
		}
		pre := repro.Evaluate(probeEnv, pp).RepoLoad
		budgets.RepoCapacity = repro.ReqPerSec(float64(pre) * *repo)
		fmt.Fprintf(stdout, "pre-offload repository load %.2f req/s; C(R) set to %.2f req/s\n\n",
			float64(pre), float64(budgets.RepoCapacity))
	}

	env, err := repro.NewEnv(w, est, budgets)
	if err != nil {
		return err
	}
	var log io.Writer
	if *verbose {
		log = stdout
	}
	var spans *repro.SpanBuffer
	if *trace {
		spans = repro.NewSpanBuffer(0)
	}
	root := repro.StartPlanSpan(spans, *seed) // nil, and free, without -trace
	placement, result, err := repro.Plan(env, repro.PlanOptions{Workers: *workers, MessageLog: log, Trace: root})
	root.End()
	if err != nil {
		return err
	}
	if err := result.Write(stdout); err != nil {
		return err
	}
	if *trace {
		fmt.Fprintln(stdout)
		if err := repro.WriteSpanTree(stdout, spans.Spans()); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout)
	if err := repro.Evaluate(env, placement).Write(stdout); err != nil {
		return err
	}
	if *explain >= 0 {
		if *explain >= w.NumPages() {
			return fmt.Errorf("page %d out of range [0,%d)", *explain, w.NumPages())
		}
		fmt.Fprintln(stdout)
		if err := repro.ExplainPage(env, placement, repro.PageID(*explain), stdout); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := placement.SaveFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nplacement written to %s\n", *out)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "replplan: %v\n", err)
		os.Exit(1)
	}
}
