// Command replreport runs the complete reproduction — every paper artifact
// and, with -extensions, every extension study — and emits a single
// self-contained Markdown report with the configuration, the Table-1 audit
// and one table per figure. It is the automated counterpart of the
// hand-annotated EXPERIMENTS.md.
//
// Usage:
//
//	replreport [-scale paper|quick] [-runs N] [-seed N] [-requests N]
//	           [-extensions] [-trace FILE] [-journal FILE] [-o report.md]
//
// With -trace (a JSONL span forest from replsim -spans or replserve -trace)
// the report appends an observability section: the Eq. 5 critical-path
// split and the five slowest traced page views. With -journal (a JSONL
// dump of /debug/journal) the section also tallies the control-plane
// flight recorder's events.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/trace"
)

// writeSection renders one study as a report section: the text summary
// fenced under its heading, then the figure as a Markdown table.
func writeSection(w io.Writer, s repro.Study, opts repro.ExperimentOptions) error {
	sum, fig, err := s.Run(opts)
	if err != nil {
		return err
	}
	if sum != nil {
		if _, err := fmt.Fprintf(w, "### %s\n\n```\n", s.Heading); err != nil {
			return err
		}
		if err := sum.Write(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "```\n"); err != nil {
			return err
		}
	}
	if fig == nil {
		return nil
	}
	if sum != nil {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return fig.WriteMarkdown(w)
}

// observabilitySection renders the recorded-trace and journal appendix.
func observabilitySection(w io.Writer, tracePath, journalPath string) error {
	if _, err := fmt.Fprintf(w, "### Observability: recorded traces\n\n"); err != nil {
		return err
	}
	if tracePath != "" {
		spans, err := repro.LoadSpans(tracePath)
		if err != nil {
			return err
		}
		a := repro.AnalyzeSpans(spans)
		total := a.Transfer + a.Queue + a.Overhead + a.RetryBackoff
		pct := func(v float64) float64 {
			if total <= 0 {
				return 0
			}
			return 100 * v / total
		}
		fmt.Fprintf(w, "Trace `%s`: %d spans, %d page views; local chain won %d, remote %d (%d degraded).\n",
			tracePath, a.Spans, a.Traces, a.LocalWins, a.RemoteWins, a.DegradedViews)
		fmt.Fprintf(w, "Time split: transfer %.1f%%, queue %.1f%%, overhead %.1f%%, retry/backoff %.1f%%.\n\n",
			pct(a.Transfer), pct(a.Queue), pct(a.Overhead), pct(a.RetryBackoff))
		fmt.Fprintf(w, "Slowest traced pages:\n\n")
		fmt.Fprintf(w, "| trace | page | observed D (s) | critical path |\n|---|---|---|---|\n")
		for _, v := range a.TopSlowest(5) {
			fmt.Fprintf(w, "| `%016x` | %d | %.4f | %s |\n", uint64(v.Trace), v.Page, v.D, v.Winner)
		}
		fmt.Fprintln(w)
	}
	if journalPath != "" {
		f, err := os.Open(journalPath)
		if err != nil {
			return err
		}
		events, err := trace.ReadEventsJSONL(f)
		_ = f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Control-plane journal `%s`: %d events.\n\n", journalPath, len(events))
		fmt.Fprintf(w, "| event | count |\n|---|---|\n")
		for _, tc := range repro.CountJournalEvents(events) {
			fmt.Fprintf(w, "| %s | %d |\n", tc.Name, tc.Count)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replreport", flag.ContinueOnError)
	options := repro.ExperimentFlags(fs)
	extensions := fs.Bool("extensions", false, "include the extension studies")
	tracePath := fs.String("trace", "", "append an observability section analyzing this span forest (JSONL)")
	journalPath := fs.String("journal", "", "include this control-plane journal dump (JSONL) in the observability section")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts, err := options()
	if err != nil {
		return err
	}

	w := stdout
	var file *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		file = f
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		w = bw
	}

	fmt.Fprintf(w, "# Reproduction report\n\n")
	fmt.Fprintf(w, "Loukopoulos & Ahmad, *Replicating the Contents of a WWW Multimedia Repository to Minimize Download Time* (IPPS 2000).\n\n")
	reqs := opts.Workload.RequestsPerSite
	if opts.RequestsPerSite > 0 {
		reqs = opts.RequestsPerSite
	}
	fmt.Fprintf(w, "Configuration: %d sites, %d objects, %d runs per point, %d requests per site, seed %d.\n",
		opts.Workload.Sites, opts.Workload.GlobalObjects, opts.Runs, reqs, opts.Seed)
	fmt.Fprintf(w, "Response times are reported relative to the proposed policy with no constraints, as in the paper.\n\n")

	for _, s := range repro.Studies {
		if !s.Paper && !*extensions {
			continue
		}
		if err := writeSection(w, s, opts); err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Fprintln(w)
	}

	if *tracePath != "" || *journalPath != "" {
		if err := observabilitySection(w, *tracePath, *journalPath); err != nil {
			return fmt.Errorf("observability: %w", err)
		}
	}

	if file != nil {
		if bw, ok := w.(*bufio.Writer); ok {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		if err := file.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "replreport: %v\n", err)
		os.Exit(1)
	}
}
