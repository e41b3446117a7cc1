// Command replexp regenerates the paper's evaluation artifacts — the
// Table-1 workload audit, Figures 1-3 and the §5.2 storage-equivalence
// claim — plus the extension studies. Results print as aligned text tables
// (mean ± 95 % CI over the runs) and can additionally be written as CSV and
// as one self-contained Markdown report.
//
// Usage:
//
//	replexp -exp NAME|all [-extensions]
//	        [-scale paper|quick] [-runs N] [-seed N] [-requests N]
//	        [-csv DIR] [-report FILE] [-progress=false]
//
// NAME is one entry of the study table (repro.Studies, listed by -h).
//
// Long sweeps narrate to stderr by default — one line per run setup and per
// sweep point, with plan statistics, prefixed with the seconds elapsed;
// -progress=false silences them.
//
// "-exp all" covers the paper's own artifacts; the extension studies run
// when named explicitly, or all of them with "-exp all -extensions".
//
// Each selected study runs once: its text goes to stdout, its figure to
// DIR/NAME.csv under -csv, and its section to the -report file, which opens
// with the configuration and is the automated counterpart of the
// hand-annotated EXPERIMENTS.md.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

// summary is a study's text result, as repro.Study's Run returns it.
type summary interface{ Write(io.Writer) error }

func writeCSV(stdout io.Writer, dir, name string, fig *repro.Figure) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fig.WriteCSV(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "(csv written to %s)\n", path)
	return nil
}

// studyNames lists the -exp names of the paper's own artifacts (paper true)
// or of the extension studies, from the one table of studies.
func studyNames(paper bool) string {
	var names []string
	for _, s := range repro.Studies {
		if s.Paper == paper {
			names = append(names, s.Name)
		}
	}
	return strings.Join(names, ", ")
}

// writeText renders what a study returned: the headed text summary, then
// the figure as a table (and chart, and CSV file).
func writeText(stdout io.Writer, s repro.Study, sum summary, fig *repro.Figure, csvDir string, plot bool) error {
	if sum != nil {
		fmt.Fprintf(stdout, "== %s ==\n", s.Heading)
		if err := sum.Write(stdout); err != nil {
			return err
		}
	}
	if fig == nil {
		return nil
	}
	if sum != nil {
		fmt.Fprintln(stdout)
	}
	if err := fig.WriteTable(stdout); err != nil {
		return err
	}
	if plot {
		fmt.Fprintln(stdout)
		if err := fig.WritePlot(stdout, 64, 16); err != nil {
			return err
		}
	}
	return writeCSV(stdout, csvDir, s.Name, fig)
}

// writeReportHeader opens the Markdown report: title, citation, and the
// configuration every section ran under. The buffered writer keeps the
// first write error for Flush to return.
func writeReportHeader(w *bufio.Writer, opts repro.ExperimentOptions) {
	fmt.Fprintf(w, "# Reproduction report\n\n")
	fmt.Fprintf(w, "Loukopoulos & Ahmad, *Replicating the Contents of a WWW Multimedia Repository to Minimize Download Time* (IPPS 2000).\n\n")
	reqs := opts.Workload.RequestsPerSite
	if opts.RequestsPerSite > 0 {
		reqs = opts.RequestsPerSite
	}
	fmt.Fprintf(w, "Configuration: %d sites, %d objects, %d runs per point, %d requests per site, seed %d.\n",
		opts.Workload.Sites, opts.Workload.GlobalObjects, opts.Runs, reqs, opts.Seed)
	fmt.Fprintf(w, "Response times are reported relative to the proposed policy with no constraints, as in the paper.\n\n")
}

// writeSection renders what a study returned as a report section: the text
// summary fenced under its heading, then the figure as a Markdown table.
func writeSection(w *bufio.Writer, s repro.Study, sum summary, fig *repro.Figure) error {
	if sum != nil {
		fmt.Fprintf(w, "### %s\n\n```\n", s.Heading)
		if err := sum.Write(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "```\n")
	}
	if fig != nil {
		if sum != nil {
			fmt.Fprintln(w)
		}
		if err := fig.WriteMarkdown(w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replexp", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+studyNames(true)+", all, or one of "+studyNames(false))
	extensions := fs.Bool("extensions", false, "with -exp all, also run every extension study")
	options := repro.ExperimentFlags(fs)
	planWorkers := fs.Int("plan-workers", 0, "worker pool size inside each planning call; 0 = 1 (runs already parallelize; plans are identical for any value)")
	csvDir := fs.String("csv", "", "also write CSV files into this directory")
	reportPath := fs.String("report", "", "also write the studies that ran as one Markdown report to this file")
	plot := fs.Bool("plot", false, "also render figures as text charts")
	progress := fs.Bool("progress", true, "narrate run setup and sweep-point completion to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts, err := options()
	if err != nil {
		return err
	}
	if *planWorkers > 0 {
		opts.PlanWorkers = *planWorkers
	}
	if *progress {
		opts.Progress = repro.ProgressWriter(os.Stderr)
	}

	var studies []repro.Study
	for _, s := range repro.Studies {
		if *exp == s.Name || (*exp == "all" && (s.Paper || *extensions)) {
			studies = append(studies, s)
		}
	}
	if len(studies) == 0 {
		return fmt.Errorf("unknown experiment %q (want all, %s, or %s)", *exp, studyNames(true), studyNames(false))
	}

	var reportFile *os.File
	var report *bufio.Writer
	if *reportPath != "" {
		if reportFile, err = os.Create(*reportPath); err != nil {
			return err
		}
		defer reportFile.Close()
		report = bufio.NewWriter(reportFile)
		writeReportHeader(report, opts)
	}
	for _, s := range studies {
		sum, fig, err := s.Run(opts)
		if err == nil {
			err = writeText(stdout, s, sum, fig, *csvDir, *plot)
		}
		if err == nil && report != nil {
			err = writeSection(report, s, sum, fig)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Fprintln(stdout)
	}
	if report == nil {
		return nil
	}
	if err := report.Flush(); err != nil {
		return err
	}
	if err := reportFile.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "(report written to %s)\n", *reportPath)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "replexp: %v\n", err)
		os.Exit(1)
	}
}
