// Package experiments regenerates the paper's evaluation (Section 5): the
// Table-1 workload audit, Figure 1 (response time vs local storage,
// proposed policy vs ideal LRU, with the Remote/Local reference levels),
// Figure 2 (response time vs local processing capacity) and Figure 3
// (response time vs local capacity for constrained repository capacities),
// plus the §5.2 storage-equivalence claim (the proposed policy matching
// LRU/Local with ≈65 % of the storage). Every experiment averages over
// independent runs — fresh workload, estimates and request streams — and
// reports response times relative to the proposed policy with no
// constraints, exactly as the paper plots them.
package experiments

import (
	"flag"
	"fmt"
	"runtime"

	"repro/internal/netsim"
	"repro/internal/workload"
)

// Options configures an experiment.
type Options struct {
	Workload workload.Config
	Net      netsim.Config
	Perturb  netsim.PerturbConfig

	// Runs is the number of independent repetitions averaged per point
	// (the paper uses 20).
	Runs int
	// Seed derives every run's workload, estimates and request streams.
	Seed uint64
	// Workers bounds run-level parallelism; 0 = GOMAXPROCS.
	Workers int
	// PlanWorkers bounds the intra-plan concurrency (core.Options.Workers)
	// of every Plan call an experiment makes. The default 0 means 1:
	// experiments already parallelize across runs, so nested planning pools
	// only help when Runs is small relative to the machine. Any value yields
	// byte-identical plans — this is a throughput knob, not a results knob.
	PlanWorkers int
	// RequestsPerSite overrides the workload config's request count when
	// positive.
	RequestsPerSite int
	// Progress, when non-nil, receives one formatted line per harness
	// event — run-environment setup and each sweep point's completion with
	// its plan statistics — so long sweeps can narrate. Each line is a
	// pure function of the options; runs execute concurrently, so the sink
	// must serialize its own output (repro.ProgressWriter does).
	Progress func(format string, args ...interface{})
}

// Paper returns the full Table-1 configuration: 10 sites, 15,000 objects,
// 10,000 requests per site, 20 runs.
func Paper() Options {
	return Options{
		Workload: workload.DefaultConfig(),
		Net:      netsim.DefaultConfig(),
		Perturb:  netsim.DefaultPerturbConfig(),
		Runs:     20,
		Seed:     2026,
	}
}

// Quick returns a reduced configuration for tests and examples: the same
// distributions at ~50× less volume and 3 runs.
func Quick() Options {
	return Options{
		Workload: workload.SmallConfig(),
		Net:      netsim.DefaultConfig(),
		Perturb:  netsim.DefaultPerturbConfig(),
		Runs:     3,
		Seed:     2026,
	}
}

// BindFlags registers replexp's experiment options — -scale, -runs, -seed
// and -requests — and returns the function that resolves them into Options
// once the flag set has been parsed.
func BindFlags(fs *flag.FlagSet) func() (Options, error) {
	scale := fs.String("scale", "paper", "paper (Table-1 volume, 20 runs) or quick")
	runs := fs.Int("runs", 0, "override the number of runs")
	seed := fs.Uint64("seed", 0, "override the experiment seed")
	requests := fs.Int("requests", 0, "override page requests per site")
	return func() (Options, error) {
		var opts Options
		switch *scale {
		case "paper":
			opts = Paper()
		case "quick":
			opts = Quick()
		default:
			return opts, fmt.Errorf("unknown scale %q", *scale)
		}
		if *runs > 0 {
			opts.Runs = *runs
		}
		if *seed != 0 {
			opts.Seed = *seed
		}
		if *requests > 0 {
			opts.RequestsPerSite = *requests
		}
		return opts, nil
	}
}

// Validate rejects unusable options.
func (o *Options) Validate() error {
	if err := o.Workload.Validate(); err != nil {
		return err
	}
	if err := o.Net.Validate(); err != nil {
		return err
	}
	if err := o.Perturb.Validate(); err != nil {
		return err
	}
	if o.Runs <= 0 {
		return fmt.Errorf("experiments: Runs must be positive, got %d", o.Runs)
	}
	if o.RequestsPerSite < 0 {
		return fmt.Errorf("experiments: negative RequestsPerSite")
	}
	if o.PlanWorkers < 0 {
		return fmt.Errorf("experiments: negative PlanWorkers")
	}
	return nil
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o *Options) planWorkers() int {
	if o.PlanWorkers > 0 {
		return o.PlanWorkers
	}
	return 1
}

func (o *Options) requests() int {
	if o.RequestsPerSite > 0 {
		return o.RequestsPerSite
	}
	return o.Workload.RequestsPerSite
}

// progressf reports one harness event to the Progress sink; no-op when the
// sink is unset.
func (o *Options) progressf(format string, args ...interface{}) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}
