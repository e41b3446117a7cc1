// Command repltrace ingests a recorded span forest (replsim -spans, or
// replserve -trace) and reports each page's observed Eq. 5 critical path:
// which chain won the max, where the time went (transfer vs queue vs
// protocol overhead vs retry/backoff), the slowest traced views, and — when
// the planning environment is regenerated from the same seed — the observed
// mean page time against the planner's predicted D, flagging every page
// outside tolerance.
//
// The predicted side rebuilds what replsim/replserve planned, through the
// same facade path (repro.WorkloadScale, repro.PlanningEnv): the same
// workload scale, seed, and storage fraction yield the same placement, so
// the comparison needs no side-channel state — just the flags that produced
// the trace. A traced page outside the regenerated workload is an error,
// since those flags cannot have produced it. -predict=false skips the side
// (for traces from foreign environments).
//
// With -chrome the span forest is additionally converted to Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing; with -journal
// a control-plane journal dump (JSONL, from /debug/journal) is tallied
// alongside.
//
// Usage:
//
//	repltrace -i trace.jsonl [-seed N] [-scale small|paper] [-storage F]
//	          [-tolerance F] [-top N] [-pages N] [-predict=false]
//	          [-chrome out.json] [-journal journal.jsonl]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"repro"
	"repro/internal/model"
	"repro/internal/trace"
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("repltrace", flag.ContinueOnError)
	in := fs.String("i", "", "span forest to analyze (JSONL, required)")
	seed := fs.Uint64("seed", 2026, "seed the traced run planned with (feeds the predicted side)")
	scale := fs.String("scale", "small", "workload scale the traced run used: small or paper")
	storage := fs.Float64("storage", 0.5, "storage budget fraction the traced run planned at")
	tolerance := fs.Float64("tolerance", 0.25, "relative deviation beyond which a page is flagged")
	top := fs.Int("top", 5, "slowest traced views to list")
	pages := fs.Int("pages", 12, "per-page rows to print (0 = all)")
	predict := fs.Bool("predict", true, "regenerate the planning environment and compare observed vs predicted D")
	chrome := fs.String("chrome", "", "also write the forest as Chrome trace-event JSON to this file")
	journal := fs.String("journal", "", "also tally a control-plane journal dump (JSONL)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-i trace.jsonl is required")
	}

	spans, err := repro.LoadSpans(*in)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s holds no spans", *in)
	}
	a := repro.AnalyzeSpans(spans)

	var penv *repro.Env
	var placement *repro.Placement
	if *predict {
		penv, placement, err = rebuildPlan(*scale, *seed, *storage)
		if err != nil {
			return fmt.Errorf("rebuild planning environment (-predict=false to skip): %w", err)
		}
		for _, ps := range a.Pages {
			if ps.Page < 0 || ps.Page >= penv.W.NumPages() {
				return fmt.Errorf("traced page %d lies outside the %d pages regenerated at -scale %s -seed %d -storage %.2f: pass the flags the traced run used, or -predict=false",
					ps.Page, penv.W.NumPages(), *scale, *seed, *storage)
			}
		}
	}

	fmt.Fprintf(stdout, "trace: %d spans, %d page views, %d pages\n", a.Spans, a.Traces, len(a.Pages))
	for _, nc := range a.NameCounts() {
		fmt.Fprintf(stdout, "  %-9s %6d\n", nc.Name, nc.Count)
	}

	total := a.Transfer + a.Queue + a.Overhead + a.RetryBackoff
	pct := func(v float64) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * v / total
	}
	fmt.Fprintf(stdout, "\nEq. 5 critical path: local chain won %d views, remote chain %d (%d degraded)\n",
		a.LocalWins, a.RemoteWins, a.DegradedViews)
	fmt.Fprintf(stdout, "time split: transfer %.1f%%  queue %.1f%%  overhead %.1f%%  retry/backoff %.1f%%  (%d retries, %d fallbacks, %d breaker events)\n",
		pct(a.Transfer), pct(a.Queue), pct(a.Overhead), pct(a.RetryBackoff),
		a.Retries, a.Fallbacks, a.BreakerEvents)

	if *top > 0 {
		fmt.Fprintf(stdout, "\nslowest views:\n")
		for _, v := range a.TopSlowest(*top) {
			fmt.Fprintf(stdout, "  trace %016x  page %4d  %10.4fs  (%s chain)\n", uint64(v.Trace), v.Page, v.D, v.Winner)
		}
	}

	fmt.Fprintf(stdout, "\nper-page critical path")
	if penv != nil {
		fmt.Fprintf(stdout, " vs predicted D (scale %s, seed %d, storage %.2f)", *scale, *seed, *storage)
	}
	fmt.Fprintln(stdout, ":")
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	header := "page\tviews\tobserved D\twinner (l/r)\tretry+backoff"
	if penv != nil {
		header += "\tpredicted D\tdeviation\tpred winner\tflag"
	}
	fmt.Fprintln(tw, header)

	// Rank pages by observed mean D so the expensive ones lead the table.
	ranked := append([]trace.PageStats(nil), a.Pages...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].MeanD > ranked[j].MeanD {
			return true
		}
		if ranked[i].MeanD < ranked[j].MeanD {
			return false
		}
		return ranked[i].Page < ranked[j].Page
	})
	flagged, compared := 0, 0
	for rank, ps := range ranked {
		show := *pages == 0 || rank < *pages
		if show {
			fmt.Fprintf(tw, "%d\t%d\t%.4fs\t%d/%d\t%.3fs", ps.Page, ps.Views, ps.MeanD, ps.LocalWins, ps.RemoteWins, ps.RetryBackoff)
		}
		if penv != nil {
			pred, predWinner := predictedD(penv, placement, ps.Page)
			if pred > 0 {
				compared++
				rel := (ps.MeanD - pred) / pred
				out := math.Abs(rel) > *tolerance
				if out {
					flagged++
				}
				if show {
					mark := ""
					if out {
						mark = "OUT"
					}
					fmt.Fprintf(tw, "\t%.4fs\t%+.1f%%\t%s\t%s", pred, 100*rel, predWinner, mark)
				}
			} else if show {
				fmt.Fprintf(tw, "\t-\t-\t-\t")
			}
		}
		if show {
			fmt.Fprintln(tw)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if *pages != 0 && len(ranked) > *pages {
		fmt.Fprintf(stdout, "  ... %d more pages (-pages 0 for all)\n", len(ranked)-*pages)
	}
	if penv != nil {
		fmt.Fprintf(stdout, "\n%d of %d pages outside +/-%.0f%% of predicted D\n", flagged, compared, 100**tolerance)
	}

	if *journal != "" {
		events, err := readJournal(*journal)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ncontrol-plane journal: %d events\n", len(events))
		for _, tc := range trace.CountEventTypes(events) {
			fmt.Fprintf(stdout, "  %-18s %6d\n", tc.Name, tc.Count)
		}
		if lineage := trace.PlanLineage(events); len(lineage) > 0 {
			fmt.Fprintln(stdout, "\nplan lineage:")
			for _, line := range lineage {
				fmt.Fprintf(stdout, "  %s\n", line)
			}
		}
	}

	if *chrome != "" {
		if err := repro.SaveChromeTrace(*chrome, spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nChrome trace written to %s (load in Perfetto or chrome://tracing)\n", *chrome)
	}
	return nil
}

// rebuildPlan regenerates the traced run's planning environment — the
// facade path replsim and replserve plan through — and its placement.
func rebuildPlan(scale string, seed uint64, storage float64) (*repro.Env, *repro.Placement, error) {
	cfg, err := repro.WorkloadScale(scale)
	if err != nil {
		return nil, nil, err
	}
	w, err := repro.GenerateWorkload(cfg, seed)
	if err != nil {
		return nil, nil, err
	}
	env, err := repro.PlanningEnv(w, seed, storage, 1)
	if err != nil {
		return nil, nil, err
	}
	p, _, err := repro.Plan(env, repro.PlanOptions{})
	return env, p, err
}

// predictedD evaluates the planner's Eq. 5 page time and its max side for
// one page of the regenerated workload.
func predictedD(env *repro.Env, p *repro.Placement, page int) (float64, string) {
	j := repro.PageID(page)
	local := float64(model.PageLocalTime(env, p, j))
	remote := float64(model.PageRemoteTime(env, p, j))
	if remote >= local {
		return remote, "remote"
	}
	return local, "local"
}

// readJournal loads a JSONL journal dump.
func readJournal(path string) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadEventsJSONL(f)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "repltrace: %v\n", err)
		os.Exit(1)
	}
}
