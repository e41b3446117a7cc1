package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestRunSimSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-requests", "150"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"planned: D=", "Proposed", "LRU", "Local", "Remote"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSimPercentilesAndQueueing(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-requests", "100", "-percentiles", "-queueing"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "p99") {
		t.Error("percentile columns missing")
	}
}

func TestRunSimFromSavedPlacement(t *testing.T) {
	// Build and save a placement through the library, then replay it.
	w, err := repro.GenerateWorkload(repro.SmallWorkloadConfig(), 2026)
	if err != nil {
		t.Fatal(err)
	}
	est, err := repro.DrawEstimates(repro.DefaultNetConfig(), w.NumSites(), repro.NewStream(2026))
	if err != nil {
		t.Fatal(err)
	}
	env, err := repro.NewEnv(w, est, repro.FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := repro.Plan(env, repro.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wpath, ppath := dir+"/w.json", dir+"/p.json"
	if err := w.SaveFile(wpath); err != nil {
		t.Fatal(err)
	}
	if err := p.SaveFile(ppath); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-w", wpath, "-p", ppath, "-requests", "80"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "loaded placement") {
		t.Error("placement not loaded")
	}
}

func TestRunSimRejects(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-w", t.TempDir() + "/missing.json"}, &sb); err == nil {
		t.Error("missing workload accepted")
	}
	if err := run([]string{"-p", t.TempDir() + "/missing.json", "-scale", "small"}, &sb); err == nil {
		t.Error("missing placement accepted")
	}
}

func TestRunSimBySite(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-requests", "60", "-by-site"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "per-site breakdown") {
		t.Error("breakdown missing")
	}
}

func TestRunSimOutage(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-requests", "100", "-outage", "0.5"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"degraded mode: site availability 0.50", "degraded"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSimRejectsBadAvailability(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-requests", "50", "-outage", "2"}, &sb); err == nil {
		t.Error("availability 2 accepted")
	}
}

func TestRunSimSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-requests", "60", "-spans", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "span forest written to") {
		t.Fatalf("span note missing:\n%s", sb.String())
	}
	spans, err := repro.LoadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	a := repro.AnalyzeSpans(spans)
	if a.Traces == 0 {
		t.Fatal("span file holds no page traces")
	}
	if a.LocalWins+a.RemoteWins != a.Traces {
		t.Fatalf("wins %d+%d != traces %d", a.LocalWins, a.RemoteWins, a.Traces)
	}
}

// TestRunRejectsUnknownScale: a -scale that names no workload is an error,
// never a quiet fallback to another workload.
func TestRunRejectsUnknownScale(t *testing.T) {
	for _, scale := range []string{"nonsense", "quick", "Small", ""} {
		if err := run([]string{"-scale", scale, "-requests", "10"}, io.Discard); err == nil {
			t.Errorf("-scale %q accepted", scale)
		}
	}
}
