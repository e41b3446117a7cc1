package main

import (
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// testBudget is about a hundredth of a real run.
const testBudget = 120 * time.Millisecond

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Every workload named in BENCHMARK.json runs, untraced and traced, and
// emits exactly the declared metrics, each once, with its declared unit.
// (runWorkload itself refuses a measured metric that is not declared.)
func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	spec := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.workloadNames() {
		if !name.MatchString(w) {
			t.Errorf("workload name %q is malformed", w)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(spec, w, 7, testBudget, traced, 1, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: declared metric %s is not emitted", w, m.Name)
				case got.Unit != m.Unit || got.Unit == "":
					t.Errorf("%s: %s has unit %q, declared %q", w, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s is %v", w, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w, m.Name, got.Value)
				}
			}
		}
	}
}

// The same seed gives the same inputs: the same request sequence on the
// live cluster and the same objective from the planner; another seed gives
// other inputs.
func TestSameSeedSameInputs(t *testing.T) {
	sequence := func(seed uint64) ([liveClients][]int, float64) {
		r := &liveRun{small: true}
		if err := r.setup(seed); err != nil {
			t.Fatal(err)
		}
		defer r.close()
		var pages [liveClients][]int
		for c := range pages {
			for i := 0; i < 40; i++ {
				pages[c] = append(pages[c], int(r.draw(c)))
			}
		}
		return pages, r.objective()
	}
	a, da := sequence(11)
	b, db := sequence(11)
	c, _ := sequence(12)
	if !reflect.DeepEqual(a, b) || da != db {
		t.Errorf("seed 11 gave two different request sequences or objectives (%v, %v)", da, db)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 11 and 12 gave the same request sequence")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Errorf("both clients of one run draw the same sequence")
	}

	plan := func(seed uint64) float64 {
		r := newPlanRun(false)
		if err := r.setup(seed); err != nil {
			t.Fatal(err)
		}
		return r.objective()
	}
	if p1, p2, p3 := plan(11), plan(11), plan(12); p1 != p2 || p1 == p3 {
		t.Errorf("plan objective: seed 11 gave %v and %v, seed 12 gave %v", p1, p2, p3)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Time { return rec.epoch.Add(time.Duration(ms) * time.Millisecond) }
	rec.add("parent", 0, 1, at(0), 100*time.Millisecond)
	rec.add("child", 1, 1, at(10), 40*time.Millisecond) // 10..50
	rec.add("child", 1, 1, at(30), 40*time.Millisecond) // 30..70 overlaps the first
	rec.add("outside", 0, -1, at(0), time.Second)       // not part of a measured operation
	self := rec.selfByOp()
	if got := self["parent"]; len(got) != 1 || got[0] != 40*time.Millisecond {
		t.Errorf("parent self time %v, want [40ms]: children cover 10..70 of 0..100", got)
	}
	if got := self["child"]; len(got) != 1 || got[0] != 80*time.Millisecond {
		t.Errorf("child self times %v, want [80ms] summed over the operation", got)
	}
	if _, ok := self["outside"]; ok {
		t.Errorf("a span outside the measured operations was counted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m      metricSpec
		a, b   []float64
		spread float64
		want   string
	}{
		{lower, []float64{100, 101}, []float64{105, 106}, 0.01, "ok"},
		{lower, []float64{100, 101}, []float64{112, 113}, 0.01, "worse"},
		{higher, []float64{100, 101}, []float64{88, 89}, 0.01, "worse"},
		{higher, []float64{100, 101}, []float64{112, 113}, 0.01, "ok"},
		{lower, []float64{90, 120}, []float64{95, 118}, 0.30, "unresolved"},
		{lower, []float64{90, 120}, []float64{60, 80}, 0.30, "ok"}, // every run of B beats every run of A
	} {
		_, am, _ := quartiles(c.a)
		_, bm, _ := quartiles(c.b)
		if got := judge(c.m, c.a, c.b, am, bm, c.spread); got != c.want {
			t.Errorf("judge(%s, %v, %v, spread %v) = %s, want %s", c.m.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}
