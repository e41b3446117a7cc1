// Command replgen generates a synthetic multimedia-repository workload per
// the paper's Table 1 and prints the generator audit (the realized value of
// every Table-1 parameter, including the §5.2 "100 % storage ≈ 1.8 GB"
// claim). Optionally the workload is saved as JSON for replplan/replsim.
//
// Usage:
//
//	replgen [-seed N] [-scale paper|small] [-o workload.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replgen", flag.ContinueOnError)
	seed := fs.Uint64("seed", 2026, "generation seed")
	scale := fs.String("scale", "paper", "workload scale: paper (Table 1) or small")
	out := fs.String("o", "", "write the workload as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := repro.WorkloadScale(*scale)
	if err != nil {
		return err
	}
	w, err := repro.GenerateWorkload(cfg, *seed)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workload audit (seed %d, scale %s):\n\n", *seed, *scale)
	if err := repro.SummarizeWorkload(w).Write(stdout); err != nil {
		return err
	}

	if *out != "" {
		if err := w.SaveFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nworkload written to %s\n", *out)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "replgen: %v\n", err)
		os.Exit(1)
	}
}
