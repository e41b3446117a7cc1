package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
)

// tracedPlan plans under a seeded root span — budgets tight enough that
// every phase has work, the repository capped at 90 % of its uncapped load —
// and returns the buffered forest (root last: spans land in End order) plus
// the result, so tests can reconcile the two.
func tracedPlan(t *testing.T, seed uint64, opts Options) ([]trace.Span, *Result) {
	t.Helper()
	env := genEnv(t, seed)
	env.Budgets = env.Budgets.Scale(env.W, 0.5, 0.2)
	_, probe, err := Plan(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	env.Budgets.RepoCapacity = units.ReqPerSec(0.9 * float64(probe.Report.RepoLoad))
	buf := trace.NewBuffer(0)
	tr := trace.NewTracer(buf, seed, trace.KindPlan)
	root := tr.StartTrace(trace.SpanPlan)
	opts.Trace = root
	_, res, err := Plan(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d spans still open after the plan and its root ended", n)
	}
	return buf.Spans(), res
}

// planPhases are the spans core starts, in the order Plan ends them, and
// planCounters the integer attributes it sets on them.
var (
	planPhases = []string{trace.SpanPartition, trace.SpanStorageRestore, trace.SpanProcessingRestore,
		trace.SpanRefine, trace.SpanOffload}
	planCounters = []string{trace.AttrDeallocs, trace.AttrProcFlips, trace.AttrOffloadRounds, trace.AttrOffloadMessages}
)

func TestPlanTracePhases(t *testing.T) {
	spans, res := tracedPlan(t, 51, Options{Workers: 2, Refine: true})
	if len(spans) != len(planPhases)+1 {
		t.Fatalf("%d spans, want the %d phases and the root", len(spans), len(planPhases))
	}
	root := spans[len(spans)-1]
	byName := map[string]*trace.Span{}
	for i, phase := range planPhases {
		sp := &spans[i]
		if sp.Name != phase || sp.Parent != root.ID || sp.Trace != root.Trace || sp.Kind != trace.KindPlan {
			t.Fatalf("span %d = %+v, want %s under the root", i, *sp, phase)
		}
		if sp.Dur <= 0 || sp.Attr(trace.AttrBusyS) == "" {
			t.Errorf("%s: wall %v, busy %q: want both positive", phase, sp.Dur, sp.Attr(trace.AttrBusyS))
		}
		byName[phase] = sp
	}
	// Span counters must agree with the result's own accounting.
	var deallocs, flips int
	for _, s := range res.Sites {
		deallocs += s.Deallocs
		flips += s.ProcFlips
	}
	if deallocs == 0 || flips == 0 || !res.Offload.Ran {
		t.Fatalf("fixture too slack: %d deallocs, %d flips, offload ran %v", deallocs, flips, res.Offload.Ran)
	}
	for _, c := range []struct {
		phase, attr string
		want        int
	}{
		{trace.SpanStorageRestore, trace.AttrDeallocs, deallocs},
		{trace.SpanProcessingRestore, trace.AttrProcFlips, flips},
		{trace.SpanOffload, trace.AttrOffloadRounds, res.Offload.Rounds},
		{trace.SpanOffload, trace.AttrOffloadMessages, res.Offload.Messages},
	} {
		if got := byName[c.phase].Attr(c.attr); got != fmt.Sprint(c.want) {
			t.Errorf("%s %s = %q, result says %d", c.phase, c.attr, got, c.want)
		}
	}
	// The rendered tree mentions each phase and counter.
	var sb strings.Builder
	if err := trace.WriteTree(&sb, spans); err != nil {
		t.Fatal(err)
	}
	for _, want := range append(append([]string{trace.SpanPlan, "wall=", "busy="}, planPhases...), planCounters...) {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("trace rendering missing %q:\n%s", want, sb.String())
		}
	}
}

// traceShape renders everything about a span forest except what the wall
// clock decides: start, duration and busy_s.
func traceShape(spans []trace.Span) string {
	var sb strings.Builder
	for _, sp := range spans {
		fmt.Fprintf(&sb, "%016x %016x<-%016x %s/%s", uint64(sp.Trace), uint64(sp.ID), uint64(sp.Parent), sp.Kind, sp.Name)
		for _, a := range sp.Attrs {
			if a.Key != trace.AttrBusyS {
				fmt.Fprintf(&sb, " %s=%s", a.Key, a.Value)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestPlanTraceDeterministic asserts a traced plan is a seeded, ID-stable
// forest: names, order, parents, trace and span IDs and every counter are
// identical across worker counts and across repeats. Only times may vary.
func TestPlanTraceDeterministic(t *testing.T) {
	ref, _ := tracedPlan(t, 52, Options{Workers: 1, Refine: true})
	want := traceShape(ref)
	for _, c := range planCounters {
		if !strings.Contains(want, " "+c+"=") {
			t.Fatalf("reference trace has no %s attribute:\n%s", c, want)
		}
	}
	for _, workers := range []int{1, 4, 4} {
		spans, _ := tracedPlan(t, 52, Options{Workers: workers, Refine: true})
		if got := traceShape(spans); got != want {
			t.Errorf("workers=%d: trace differs from the Workers: 1 reference:\n--- got\n%s--- want\n%s", workers, got, want)
		}
	}
}

// TestPlanUntracedHasNoTrace pins the nil default: a whole Plan without
// Options.Trace reads no clock (spans are the planner's only clock user).
func TestPlanUntracedHasNoTrace(t *testing.T) {
	env := genEnv(t, 53)
	env.Budgets = env.Budgets.Scale(env.W, 0.5, 0.5)
	reads := 0
	clock = func() time.Time { reads++; return time.Time{} }
	defer func() { clock = time.Now }()
	if _, _, err := Plan(env, Options{Workers: 1, Refine: true}); err != nil {
		t.Fatal(err)
	}
	if reads != 0 {
		t.Errorf("untraced plan read the clock %d times", reads)
	}
}

// TestPlanTraceVocabulary holds the planner's span vocabulary to the
// benchmark's: every phase span name + "_ms" and every counter attribute
// prefixed "core." must be a per-layer metric BENCHMARK.json declares.
func TestPlanTraceVocabulary(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range bench.PerLayer {
		declared[m.Name] = true
	}
	for _, phase := range planPhases {
		if !declared[phase+"_ms"] {
			t.Errorf("phase span %q: BENCHMARK.json declares no per-layer %q", phase, phase+"_ms")
		}
	}
	for _, attr := range planCounters {
		if !declared["core."+attr] {
			t.Errorf("counter attribute %q: BENCHMARK.json declares no per-layer %q", attr, "core."+attr)
		}
	}
	// And the lists above are the whole vocabulary a traced plan emits.
	spans, _ := tracedPlan(t, 51, Options{Workers: 2, Refine: true})
	known := map[string]bool{trace.SpanPlan: true, trace.AttrBusyS: true}
	for _, s := range append(planPhases, planCounters...) {
		known[s] = true
	}
	for _, sp := range spans {
		if !known[sp.Name] {
			t.Errorf("traced plan emitted undeclared span %q", sp.Name)
		}
		for _, a := range sp.Attrs {
			if !known[a.Key] {
				t.Errorf("span %s carries undeclared attribute %q", sp.Name, a.Key)
			}
		}
	}
}
