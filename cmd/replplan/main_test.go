package main

import (
	"io"
	"strings"
	"testing"

	"repro"
)

func TestRunPlanSmall(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-storage", "0.5"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"plan: D=", "feasible=true", "repository: load"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunPlanWithOffloadVerbose(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-capacity", "0.6", "-repo", "0.6", "-verbose", "-trace"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"pre-offload repository load", "NewReq", "accepted",
		"\ncore.plan ", "\n  core.partition ", "\n  core.offload ", " busy=", "offload_messages="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunPlanSavesPlacement(t *testing.T) {
	path := t.TempDir() + "/p.json"
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "placement written") {
		t.Error("no save confirmation")
	}
}

func TestRunPlanFromWorkloadFile(t *testing.T) {
	// Generate a workload with replgen-equivalent API, then plan it.
	var sb strings.Builder
	wpath := t.TempDir() + "/w.json"
	if err := run([]string{"-scale", "small", "-o", t.TempDir() + "/unused.json"}, &sb); err != nil {
		t.Fatal(err)
	}
	// Save a workload directly for the -w path.
	if err := saveSmallWorkload(wpath); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run([]string{"-w", wpath}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "plan: D=") {
		t.Error("plan from file failed")
	}
}

func TestRunPlanRejectsMissingFile(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-w", t.TempDir() + "/missing.json"}, &sb); err == nil {
		t.Error("missing workload accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
}

// saveSmallWorkload writes a small workload JSON for the -w tests.
func saveSmallWorkload(path string) error {
	w, err := repro.GenerateWorkload(repro.SmallWorkloadConfig(), 2026)
	if err != nil {
		return err
	}
	return w.SaveFile(path)
}

// TestRunRejectsUnknownScale: a -scale that names no workload is an error,
// never a quiet fallback to another workload.
func TestRunRejectsUnknownScale(t *testing.T) {
	for _, scale := range []string{"nonsense", "quick", "Small", ""} {
		if err := run([]string{"-scale", scale}, io.Discard); err == nil {
			t.Errorf("-scale %q accepted", scale)
		}
	}
}
