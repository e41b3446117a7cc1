package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/model"
	"repro/internal/trace"
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

// checkPredictions requires the span file to carry one predict span per
// page of env's workload whose Dur is model.PageTime of p.
func checkPredictions(t *testing.T, path string, env *repro.Env, p *repro.Placement) {
	t.Helper()
	spans, err := repro.LoadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, s := range spans {
		if s.Name != trace.SpanPredict {
			continue
		}
		seen++
		page, err := strconv.Atoi(s.Attr(trace.AttrPage))
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(model.PageTime(env, p, repro.PageID(page))); s.Dur != want {
			t.Errorf("page %d: predicted %v, plan's Eq. 5 time %v", page, s.Dur, want)
		}
	}
	if seen != env.W.NumPages() {
		t.Fatalf("%d predict spans for %d pages", seen, env.W.NumPages())
	}
}

// TestSpansCarryTheSimulatedPlan: the predictions are those of the plan the
// run simulated, capacity included, and the file is byte-identical across
// two runs at one seed.
func TestSpansCarryTheSimulatedPlan(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, strconv.Itoa(i)+".jsonl")
		args := []string{"-scale", "small", "-storage", "0.3", "-capacity", "0.15", "-requests", "40", "-spans", path}
		if err := run(args, io.Discard); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = raw
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("two -spans runs at one seed wrote different files")
	}

	w, err := repro.GenerateWorkload(repro.SmallWorkloadConfig(), 2026)
	if err != nil {
		t.Fatal(err)
	}
	env, err := repro.PlanningEnv(w, 2026, 0.3, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := repro.Plan(env, repro.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkPredictions(t, filepath.Join(dir, "0.jsonl"), env, p)
}

// TestSpansCarryTheLoadedPlacement: with -p the predictions are the loaded
// placement's, not those of the plan replsim would have made.
func TestSpansCarryTheLoadedPlacement(t *testing.T) {
	w, err := repro.GenerateWorkload(repro.SmallWorkloadConfig(), 2026)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := repro.PlanningEnv(w, 2026, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := repro.Plan(tight, repro.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	wpath, ppath, spans := dir+"/w.json", dir+"/p.json", dir+"/spans.jsonl"
	if err := w.SaveFile(wpath); err != nil {
		t.Fatal(err)
	}
	if err := loaded.SaveFile(ppath); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-w", wpath, "-p", ppath, "-requests", "40", "-spans", spans}, io.Discard); err != nil {
		t.Fatal(err)
	}

	// replsim simulates -p under its own budgets (storage 1 by default).
	env, err := repro.PlanningEnv(w, 2026, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	replanned, _, err := repro.Plan(env, repro.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for j := range w.NumPages() {
		id := repro.PageID(j)
		differs = differs || model.PageTime(env, loaded, id) != model.PageTime(env, replanned, id)
	}
	if !differs {
		t.Fatal("the loaded placement predicts what a re-plan would: the test cannot tell them apart")
	}
	checkPredictions(t, spans, env, loaded)
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
