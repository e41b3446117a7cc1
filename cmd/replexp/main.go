// Command replexp regenerates the paper's evaluation artifacts — the
// Table-1 workload audit, Figures 1-3 and the §5.2 storage-equivalence
// claim — plus the extension studies. Results print as aligned text tables
// (mean ± 95 % CI over the runs) and can additionally be written as CSV.
//
// Usage:
//
//	replexp -exp NAME|all
//	        [-scale paper|quick] [-runs N] [-seed N] [-requests N] [-csv DIR]
//	        [-progress=false]
//
// NAME is one entry of the study table (repro.Studies, listed by -h).
//
// Long sweeps narrate to stderr by default — one line per run setup and per
// sweep point, with wall-clock and plan statistics; -progress=false silences
// them.
//
// "-exp all" covers the paper's own artifacts; the extension studies run
// only when named explicitly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

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

// runStudy computes one study and renders what it returns: the headed text
// summary, then the figure as a table (and chart, and CSV file).
func runStudy(s repro.Study, opts repro.ExperimentOptions, stdout io.Writer, csvDir string, plot bool) error {
	sum, fig, err := s.Run(opts)
	if err != nil {
		return err
	}
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

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replexp", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+studyNames(true)+", all, or one of "+studyNames(false))
	options := repro.ExperimentFlags(fs)
	planWorkers := fs.Int("plan-workers", 0, "worker pool size inside each planning call; 0 = 1 (runs already parallelize; plans are identical for any value)")
	csvDir := fs.String("csv", "", "also write CSV files into this directory")
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

	ran := false
	for _, s := range repro.Studies {
		if *exp == s.Name || (*exp == "all" && s.Paper) {
			if err := runStudy(s, opts, stdout, *csvDir, *plot); err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
			fmt.Fprintln(stdout)
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want all, %s, or %s)", *exp, studyNames(true), studyNames(false))
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "replexp: %v\n", err)
		os.Exit(1)
	}
}
