package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/trace"
)

// writeSeedTrace simulates the proposed policy (small scale, seed 2026,
// storage 0.5) with tracing armed and writes the span forest, followed by
// the plan's predictions, as a replsim -spans run would.
func writeSeedTrace(t *testing.T, dir string) string {
	t.Helper()
	w, err := repro.GenerateWorkload(repro.SmallWorkloadConfig(), 2026)
	if err != nil {
		t.Fatal(err)
	}
	env, err := repro.PlanningEnv(w, 2026, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := repro.Plan(env, repro.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := repro.DefaultSimConfig(w)
	cfg.RequestsPerSite = 40
	cfg.Trace = repro.NewSpanBuffer(0)
	if _, err := repro.Simulate(w, env.Est, repro.NewStaticPolicy("Proposed", p), cfg, repro.NewStream(2027)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.jsonl")
	if err := repro.SaveSpans(path, append(cfg.Trace.Spans(), repro.PredictSpans(env, p)...)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestObservedVsPredicted(t *testing.T) {
	dir := t.TempDir()
	in := writeSeedTrace(t, dir)
	chrome := filepath.Join(dir, "trace.json")
	journal := filepath.Join(dir, "journal.jsonl")

	// A small journal dump, as /debug/journal would emit it.
	j := trace.NewJournal(8)
	j.Record("probe.transition", trace.A("from", "up"), trace.A("to", "suspect"))
	j.Record("probe.transition", trace.A("from", "suspect"), trace.A("to", "down"))
	j.Record("repair.planned", trace.I("rehomed", 3))
	j.Record("plan.applied", trace.I("gen", 1), trace.I("parent", 0), trace.A("cause", "repair"), trace.I("sites_down", 1))
	f, err := os.Create(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-i", in, "-chrome", chrome, "-journal", journal}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Eq. 5 critical path",
		"per-page critical path vs predicted D:",
		"pages outside +/-25% of predicted D",
		"probe.transition",
		"repair.planned",
		"plan lineage:",
		"gen 1 ← 0: repair (sites_down=1)",
		"Chrome trace written",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}

	// The Chrome export must be valid trace-event JSON with one event per span.
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	spans, err := repro.LoadSpans(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != len(spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(ct.TraceEvents), len(spans))
	}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" {
			t.Fatalf("malformed chrome event: %+v", ev)
		}
	}
}

func TestMissingInput(t *testing.T) {
	if err := run([]string{}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing -i accepted")
	}
	if err := run([]string{"-i", "/does/not/exist.jsonl"}, &bytes.Buffer{}); err == nil {
		t.Fatal("nonexistent input accepted")
	}
}

// writeForest writes hand-made JSONL span lines to a file and returns it.
func writeForest(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "forest.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const (
	pageView    = `{"trace":1,"id":2,"name":"page","kind":"sim","start":0,"dur":1.5,"attrs":[{"k":"page","v":"7"},{"k":"site","v":"0"}]}`
	pagePredict = `{"trace":0,"id":8,"name":"predict","kind":"plan","start":0,"dur":1.2,"attrs":[{"k":"page","v":"7"},{"k":"chain","v":"remote"}]}`
)

// TestComparesAgainstCarriedPrediction: a page viewed once for 1.5 s whose
// carried prediction is 1.2 s deviates by +25.0%, outside a 20% band and
// inside a 30% one.
func TestComparesAgainstCarriedPrediction(t *testing.T) {
	in := writeForest(t, pageView, pagePredict)
	for _, tc := range []struct {
		tolerance string
		row       []string // the page's row, split into fields
		tally     string
	}{
		{"0.2", []string{"7", "1", "1.5000s", "1/0", "0.000s", "1.2000s", "+25.0%", "remote", "OUT"}, "1 of 1 pages outside +/-20% of predicted D"},
		{"0.3", []string{"7", "1", "1.5000s", "1/0", "0.000s", "1.2000s", "+25.0%", "remote"}, "0 of 1 pages outside +/-30% of predicted D"},
	} {
		var out bytes.Buffer
		if err := run([]string{"-i", in, "-tolerance", tc.tolerance}, &out); err != nil {
			t.Fatal(err)
		}
		got := out.String()
		if !strings.Contains(got, tc.tally) {
			t.Errorf("-tolerance %s: output missing %q:\n%s", tc.tolerance, tc.tally, got)
		}
		found := false
		for _, line := range strings.Split(got, "\n") {
			found = found || strings.Join(strings.Fields(line), " ") == strings.Join(tc.row, " ")
		}
		if !found {
			t.Errorf("-tolerance %s: no row %q:\n%s", tc.tolerance, tc.row, got)
		}
	}
}

// TestObservedOnlyWithoutPredictions: a forest that carries no predict
// span (a live replserve trace) prints the observed side alone.
func TestObservedOnlyWithoutPredictions(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-i", writeForest(t, pageView)}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1.5000s") {
		t.Fatalf("observed time missing:\n%s", out.String())
	}
	if strings.Contains(out.String(), "predicted") {
		t.Fatalf("prediction-free forest printed a prediction:\n%s", out.String())
	}
}
