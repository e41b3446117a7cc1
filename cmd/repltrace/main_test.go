package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/trace"
)

// writeSeedTrace simulates the proposed policy at the repltrace defaults
// (small scale, seed 2026, storage 0.5) with tracing armed and writes the
// span forest where a replsim -spans run would.
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
	if err := repro.SaveSpans(path, cfg.Trace.Spans()); err != nil {
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
		"predicted D (scale small, seed 2026, storage 0.50)",
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

func TestNoPredict(t *testing.T) {
	dir := t.TempDir()
	in := writeSeedTrace(t, dir)
	var out bytes.Buffer
	if err := run([]string{"-i", in, "-predict=false"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "predicted") {
		t.Fatalf("-predict=false still predicted:\n%s", out.String())
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

// TestRunRejectsUnknownScale: a -scale that names no workload is an error,
// never a quiet fallback to another workload.
func TestRunRejectsUnknownScale(t *testing.T) {
	in := writeSeedTrace(t, t.TempDir())
	for _, scale := range []string{"nonsense", "quick", "Small", ""} {
		if err := run([]string{"-i", in, "-scale", scale}, io.Discard); err == nil {
			t.Errorf("-scale %q accepted", scale)
		}
	}
}

// TestRejectsPageOutsideWorkload: a traced page the regenerated workload
// does not have means the flags are not the traced run's; predicting
// anyway would leave the page out of the tally without a word.
func TestRejectsPageOutsideWorkload(t *testing.T) {
	in := filepath.Join(t.TempDir(), "foreign.jsonl")
	span := `{"trace":1,"id":2,"name":"page","kind":"sim","start":0,"dur":1.5,"attrs":[{"k":"page","v":"999999"},{"k":"site","v":"0"}]}` + "\n"
	if err := os.WriteFile(in, []byte(span), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-i", in}, io.Discard)
	if err == nil {
		t.Fatal("page 999999 predicted against a 169-page workload")
	}
	for _, flag := range []string{"-scale", "-seed", "-storage", "-predict=false"} {
		if !strings.Contains(err.Error(), flag) {
			t.Errorf("error does not name %s: %v", flag, err)
		}
	}
	if err := run([]string{"-i", in, "-predict=false"}, io.Discard); err != nil {
		t.Errorf("-predict=false: %v", err)
	}
}
