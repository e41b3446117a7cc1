package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// resultSet is one side of a comparison: every value seen per workload and
// metric, and the checked operations per workload.
type resultSet struct {
	values            map[string]map[string][]float64
	attempted, failed map[string]int
	trace             int
}

// loadSet reads a result file, or every *.json file of a directory.
func loadSet(path string) (*resultSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	set := &resultSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for i, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if i > 0 && f.Trace != set.trace {
			return nil, fmt.Errorf("%s: mixes traced and untraced results", path)
		}
		set.trace = f.Trace
		for w, res := range f.Workloads {
			if set.values[w] == nil {
				set.values[w] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				set.values[w][m] = append(set.values[w][m], v.Value)
			}
			set.attempted[w] += res.Attempted
			set.failed[w] += res.Failed
		}
	}
	return set, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does, which is what the
// benchmark's acceptance rule is written in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareMain is "compare A B": A is the base, B what is judged against it.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare A B — each a result file written with --save, or a directory of them")
		return 2
	}
	spec, err := loadSpec(specPath)
	var a, b *resultSet
	if err == nil {
		a, err = loadSet(args[0])
	}
	if err == nil {
		b, err = loadSet(args[1])
	}
	if err == nil && a.trace != b.trace {
		err = fmt.Errorf("one side is traced and the other is not")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	declared := spec.EndToEnd
	if a.trace != 0 {
		declared = spec.PerLayer
	}
	worse := 0
	fmt.Printf("%-18s %-34s %13s %13s %9s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "B/A", "A spread", "B spread", "verdict")
	for _, w := range spec.workloadNames() {
		if a.values[w] == nil || b.values[w] == nil {
			continue
		}
		if a.trace == 0 {
			fa, fb := float64(a.failed[w])/float64(a.attempted[w]), float64(b.failed[w])/float64(b.attempted[w])
			verdict := "ok"
			if fb > fa {
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-18s %-34s %13.6g %13.6g %9s %8s %8s  %s\n", w, "failed_share", fa, fb, "", "", "", verdict)
		}
		for _, m := range declared {
			va, vb := a.values[w][m.Name], b.values[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			if am == 0 && bm == 0 {
				continue // a layer this workload does not exercise
			}
			verdict := ""
			if a.trace == 0 {
				verdict = judge(m, va, vb, am, bm, max((a3-a1)/am, (b3-b1)/bm))
				if verdict == "worse" {
					worse++
				}
			}
			fmt.Printf("%-18s %-34s %13.6g %13.6g %9.4f %7.2f%% %7.2f%%  %s\n", w, m.Name, am, bm, bm/am, 100*(a3-a1)/am, 100*(b3-b1)/bm, verdict)
		}
	}
	if worse > 0 {
		fmt.Printf("%d metric(s) worse than their bound allows\n", worse)
		return 1
	}
	return 0
}

// judge applies an end-to-end metric's bound: worse when B's median is worse
// than A's by more than the bound (as a share of A's median); unresolved
// when it is not but the runs spread wider than the bound, unless every run
// of B reads better than every run of A; ok otherwise.
func judge(m metricSpec, va, vb []float64, am, bm, spread float64) string {
	sign := 1.0 // lower is better
	if m.Better == "higher" {
		sign = -1
	}
	if sign*(bm-am)/am > m.Bound {
		return "worse"
	}
	if spread > m.Bound {
		for _, x := range va {
			for _, y := range vb {
				if sign*(y-x) >= 0 {
					return "unresolved"
				}
			}
		}
	}
	return "ok"
}
