package main

import (
	"io"
	"strings"
	"testing"

	"repro"
)

func TestRunSmallAudit(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-seed", "7"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"workload audit", "Local sites", "Hot pages", "storage per site"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSavesWorkload(t *testing.T) {
	path := t.TempDir() + "/w.json"
	var sb strings.Builder
	if err := run([]string{"-scale", "small", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	w, err := repro.LoadWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumSites() == 0 {
		t.Error("saved workload empty")
	}
	if !strings.Contains(sb.String(), "written to") {
		t.Error("no confirmation printed")
	}
}

// TestRunRejectsBadScale: a -scale that names no workload is an error,
// never a quiet fallback to another workload.
func TestRunRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"nonsense", "gigantic", "quick", "Small", ""} {
		if err := run([]string{"-scale", scale}, io.Discard); err == nil {
			t.Errorf("-scale %q accepted", scale)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-no-such-flag"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
}
