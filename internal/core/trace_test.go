package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// tracedPlan plans with a trace span attached and returns the ended span
// plus the result, so tests can reconcile the two.
func tracedPlan(t *testing.T, seed uint64, opts Options) (*telemetry.Span, *Result) {
	t.Helper()
	env := genEnv(t, seed)
	env.Budgets = env.Budgets.Scale(env.W, 0.5, 0.5)
	span := telemetry.NewSpan("plan")
	opts.Trace = span
	_, res, err := Plan(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	span.End()
	return span, res
}

func TestPlanTracePhases(t *testing.T) {
	span, res := tracedPlan(t, 51, Options{Workers: 2, Refine: true})
	for _, phase := range []string{"PARTITION", "storage-restore", "processing-restore", "refine", "off-loading"} {
		sp := span.Find(phase)
		if sp == nil {
			t.Fatalf("trace has no %q span", phase)
		}
		if sp.Wall() <= 0 {
			t.Errorf("%s wall time not positive", phase)
		}
	}
	// Trace counters must agree with the result's own accounting.
	var deallocs, flips int64
	for _, s := range res.Sites {
		deallocs += int64(s.Deallocs)
		flips += int64(s.ProcFlips)
	}
	if got := span.Find("storage-restore").CounterValue("deallocs"); got != deallocs {
		t.Errorf("trace deallocs = %d, result says %d", got, deallocs)
	}
	if got := span.Find("processing-restore").CounterValue("flips"); got != flips {
		t.Errorf("trace flips = %d, result says %d", got, flips)
	}
	if span.Find("PARTITION").CounterValue("pages") <= 0 {
		t.Error("PARTITION counted no pages")
	}
	var localComp int64
	for _, s := range res.Sites {
		localComp += int64(s.LocalComp)
	}
	if got := span.CounterValue("local-comp"); got != localComp {
		t.Errorf("trace local-comp = %d, result says %d", got, localComp)
	}
	// The result must hand the trace back to callers.
	if res.Trace != span {
		t.Error("Result.Trace is not the span passed in Options")
	}
	// The rendered tree mentions each phase.
	var sb strings.Builder
	if err := span.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PARTITION", "deallocs=", "flips="} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("trace rendering missing %q:\n%s", want, sb.String())
		}
	}
}

// traceShape flattens a span tree into names, nesting and counter values —
// everything except durations, which legitimately vary run to run.
func traceShape(span *telemetry.Span) string {
	var sb strings.Builder
	var walk func(sp *telemetry.Span, depth int)
	walk = func(sp *telemetry.Span, depth int) {
		fmt.Fprintf(&sb, "%*s%s", depth*2, "", sp.Name())
		for _, c := range sp.Counters() {
			fmt.Fprintf(&sb, " %s=%d", c.Name, c.Value)
		}
		sb.WriteString("\n")
		for _, ch := range sp.Children() {
			walk(ch, depth+1)
		}
	}
	walk(span, 0)
	return sb.String()
}

// TestPlanTraceDeterministic asserts the trace's event structure — span
// names, nesting and every counter value — is identical across repeat runs
// at a fixed seed, even across worker counts. Only durations may vary.
func TestPlanTraceDeterministic(t *testing.T) {
	a, _ := tracedPlan(t, 52, Options{Workers: 4})
	b, _ := tracedPlan(t, 52, Options{Workers: 1})
	if sa, sb := traceShape(a), traceShape(b); sa != sb {
		t.Errorf("trace shapes differ across runs/worker counts:\n--- workers=4\n%s--- workers=1\n%s", sa, sb)
	}
	if na, nb := a.Events(), b.Events(); na != nb {
		t.Errorf("event counts differ: %d vs %d", na, nb)
	}
}

// TestPlanUntracedHasNoTrace pins the nil default: no span, no Result.Trace.
func TestPlanUntracedHasNoTrace(t *testing.T) {
	env := genEnv(t, 53)
	_, res, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("untraced plan populated Result.Trace")
	}
}
