// Command benchmark is the repository's one repeatable benchmark: six named
// workloads, the same end-to-end metrics on each, and per-layer numbers
// measured from outside by timing calls into each layer's exported
// functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloadRun is one workload's inputs and operations.
type workloadRun interface {
	// setup builds every input from seed and runs one operation, so that
	// its duration is the time from a seed to a first result.
	setup(seed uint64) error
	// close releases what setup made.
	close()
	// measure runs the workload's operations for budget. With a nil
	// recorder tracing is off; otherwise every call into a layer is a span.
	measure(budget time.Duration, t *tally, rec *recorder) *sample
	// objective is the paper's objective D of what the operations produced,
	// relative to the workload's reference (see README.md).
	objective() float64
	// layers measures the layers this workload leans on, one at a time.
	layers(budget time.Duration, t *tally, rec *recorder, out map[string]float64)
}

var workloads = map[string]func() workloadRun{
	"plan-constrained":   func() workloadRun { return newPlanRun(true) },
	"plan-unconstrained": func() workloadRun { return newPlanRun(false) },
	"figures-quick":      func() workloadRun { return &figuresRun{} },
	"live-table1":        func() workloadRun { return &liveRun{arm: fullyArmed} },
	"live-small":         func() workloadRun { return &liveRun{arm: fullyArmed, small: true} },
	"control-cycles":     func() workloadRun { return &controlRun{} },
}

// traceDir is where a traced run writes its spans.
const traceDir = "benchmark/out"

// setupReps is how often a run sets up at least; it goes on, up to three
// times as often, while the set-ups fit in setupShare of the run's budget, so
// that a short set-up is sampled more often. setup_s is the median.
const (
	setupReps  = 5
	setupShare = 0.15
)

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	timed int // timed operations behind the untraced medians, for the table
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload makes one run of one workload: the end-to-end metrics with
// tracing off, or the per-layer metrics from a traced run.
func runWorkload(spec *benchSpec, name string, seed uint64, budget time.Duration, traced bool, reps int, outDir string) (*result, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(spec.workloadNames(), ", "))
	}
	var t tally
	var values map[string]float64
	var declared []metricSpec
	timed := 0
	if !traced {
		declared = spec.EndToEnd
		var setups []time.Duration
		var w workloadRun
		begin := time.Now()
		for i := 0; i < reps || (i < 3*reps && time.Since(begin) < scale(budget, setupShare)); i++ {
			if w != nil {
				w.close()
			}
			w = mk()
			r0 := readCPU()
			if err := w.setup(seed); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", name, err)
			}
			r1 := readCPU()
			setups = append(setups, scale(r1.at.Sub(r0.at), r1.grantedSince(r0)))
		}
		defer w.close()
		s := w.measure(budget, &t, nil)
		timed = len(s.durs)
		values = s.endToEnd(quantile(setups, 0.5), w.objective())
		fmt.Fprintf(os.Stderr, "%s: %.1f%% of the timed phase was stolen by the hypervisor; on the wall clock op_p50_ms reads %.6g\n",
			name, 100*s.stolen, ms(quantile(s.raw, 0.5)))
	} else {
		declared = spec.PerLayer
		w := mk()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		defer w.close()
		rec := newRecorder()
		values = make(map[string]float64)
		// A third of the time untraced, a third traced, a third on layers
		// in isolation; the first two give the tracing overhead.
		plain := w.measure(budget/3, &t, nil)
		spans := w.measure(budget/3, &t, rec)
		plain.runtimeLayer(values)
		values["bench.steal_share"] = plain.stolen
		p0, p1 := quantile(plain.durs, 0.5), quantile(spans.durs, 0.5)
		values["bench.trace_overhead_share"] = float64(p1-p0) / float64(p0)
		w.layers(budget/3, &t, rec, values)
		for span, durs := range rec.selfByOp() {
			if m, ok := spec.find(span); ok {
				values[span] = inUnit(quantile(durs, 0.5), m.Unit)
			}
		}
		if err := rec.write(filepath.Join(outDir, "trace-"+name+".jsonl")); err != nil {
			return nil, err
		}
	}
	if t.first != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed check: %v\n", name, t.first)
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: make(map[string]metric), timed: timed}
	for _, m := range declared {
		res.Metrics[m.Name] = metric{values[m.Name], m.Unit}
		delete(values, m.Name)
	}
	for stray := range values {
		return nil, fmt.Errorf("%s: metric %q is measured but not declared in BENCHMARK.json", name, stray)
	}
	return res, nil
}

func inUnit(d time.Duration, unit string) float64 {
	switch unit {
	case "s":
		return d.Seconds()
	case "ms":
		return ms(d)
	case "us":
		return us(d)
	}
	return float64(d)
}

// machine describes where a result was measured.
func machine() map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
		"network":    "loopback",
	}
}

// resultFile is what -save writes and compare reads.
type resultFile struct {
	Machine   map[string]any     `json:"machine"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     int                `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "workload to run (default: all six, printed as a table)")
		seed     = flag.Uint64("seed", 2026, "seed every input is generated from")
		seconds  = flag.Int("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		save     = flag.String("save", "", "also write the results to this file, for compare")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *save); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, save string) error {
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("needs at least 2 CPUs: the live workloads run 2 clients against 5 servers in one process")
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	names := spec.workloadNames()
	if workload != "" {
		names = []string{workload}
	}
	file := &resultFile{Machine: machine(), Seed: seed, Seconds: seconds, Trace: trace, Workloads: make(map[string]*result)}
	for _, name := range names {
		res, err := runWorkload(spec, name, seed, time.Duration(seconds)*time.Second, trace != 0, setupReps, traceDir)
		if err != nil {
			return err
		}
		file.Workloads[name] = res
		if workload == "" {
			printTable(spec, name, res, trace != 0)
		}
	}
	if save != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(save, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if workload != "" {
		line, err := json.Marshal(file.Workloads[workload])
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	} else {
		m, _ := json.Marshal(file.Machine)
		fmt.Printf("machine: %s\n", m)
	}
	return nil
}

// printTable prints one workload's metrics by name for a reader.
func printTable(spec *benchSpec, name string, res *result, traced bool) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d failed_share=%g",
		name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	if !traced {
		fmt.Printf(" timed_operations=%d", res.timed)
	}
	fmt.Println()
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	for _, m := range declared {
		v := res.Metrics[m.Name]
		if traced && v.Value == 0 {
			continue // a layer this workload does not exercise
		}
		line := fmt.Sprintf("  %-36s %14.6g %-6s", m.Name, v.Value, v.Unit)
		if !traced {
			line += fmt.Sprintf(" %s is better, may worsen by %g%%", m.Better, m.Bound*100)
		}
		fmt.Println(line)
	}
}
