// Command repltrace ingests a recorded span forest (replsim -spans, or
// replserve -trace) and reports each page's observed Eq. 5 critical path:
// which chain won the max, where the time went (transfer vs queue vs
// protocol overhead vs retry/backoff) and the slowest traced views. When
// the forest carries the plan's predictions (replsim -spans writes one
// "predict" span per page of the placement it simulated), each page's
// observed mean time is set against its predicted D, and every page
// outside tolerance is flagged. A live replserve trace carries none — its
// times are wall-clock — so only the observed side is printed.
//
// With -chrome the span forest is additionally converted to Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing; with -journal
// a control-plane journal dump (JSONL, from /debug/journal) is tallied
// alongside.
//
// Usage:
//
//	repltrace -i trace.jsonl [-tolerance F] [-top N] [-pages N]
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
	"repro/internal/trace"
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("repltrace", flag.ContinueOnError)
	in := fs.String("i", "", "span forest to analyze (JSONL, required)")
	tolerance := fs.Float64("tolerance", 0.25, "relative deviation beyond which a page is flagged")
	top := fs.Int("top", 5, "slowest traced views to list")
	pages := fs.Int("pages", 12, "per-page rows to print (0 = all)")
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

	predicted := false
	for _, ps := range a.Pages {
		predicted = predicted || ps.PredictedChain != ""
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
	if predicted {
		fmt.Fprintf(stdout, " vs predicted D")
	}
	fmt.Fprintln(stdout, ":")
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	header := "page\tviews\tobserved D\twinner (l/r)\tretry+backoff"
	if predicted {
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
		if predicted {
			if pred := ps.Predicted; pred > 0 {
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
					fmt.Fprintf(tw, "\t%.4fs\t%+.1f%%\t%s\t%s", pred, 100*rel, ps.PredictedChain, mark)
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
	if predicted {
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
