package main

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/repair"
	"repro/internal/trace"
)

func TestRunServeFetchAdapt(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fetch", "6", "-adapt", "-journal"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"planned: D=", "repository: http://", "site S0:",
		"fetched 6 pages", "adaptive cycle", "re-planned on observed traffic",
		"plan gen 1 ← 0: adapt (sites_down=0 copy_bytes=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunServeNoFetch(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fetch", "0"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "fetched") {
		t.Error("fetched despite -fetch 0")
	}
}

func TestRunServeRejectsBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-nope"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunServeChaos(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fetch", "8", "-chaos", "0.6"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"chaos: level 0.60 fault plan armed",
		"fetched 8 pages",
		"resilience:",
		"all 8 fetches completed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunServeRejectsBadChaosLevel(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-chaos", "1.5"}, &sb); err == nil {
		t.Error("chaos level 1.5 accepted")
	}
}

func TestRunServeTraceJournal(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	chromePath := filepath.Join(dir, "trace.json")
	var sb strings.Builder
	if err := run([]string{"-fetch", "6", "-chaos", "0.4",
		"-trace", tracePath, "-chrome", chromePath, "-journal"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"journal: flight recorder armed",
		"spans written to",
		"Chrome trace written to",
		"events recorded, 0 dropped", "fault.injected",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// The forest round-trips and contains both client and server spans —
	// the X-Repl-Trace header really propagated across processes' handlers.
	spans, err := repro.LoadSpans(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// Loopback times are wall-clock, so the file carries no Eq. 5 prediction.
	var pages, serves, predicts int
	for i := range spans {
		switch spans[i].Name {
		case trace.SpanPage:
			pages++
		case trace.SpanServe:
			serves++
		case trace.SpanPredict:
			predicts++
		}
	}
	if pages != 6 || serves == 0 || predicts != 0 {
		t.Fatalf("trace file has %d page roots, %d serve spans, %d predict spans", pages, serves, predicts)
	}
	if !strings.Contains(out, "(repltrace -i "+tracePath+")") {
		t.Errorf("exit hint is not a bare repltrace -i:\n%s", out)
	}
}

func TestRunServeChromeRequiresTrace(t *testing.T) {
	if err := run([]string{"-chrome", "x.json"}, &strings.Builder{}); err == nil {
		t.Error("-chrome without -trace accepted")
	}
}

// TestHealBannerCitesProbeLaw: the -heal banner's miss count is the probe
// law's K, not a copy of it.
func TestHealBannerCitesProbeLaw(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fetch", "0", "-heal"}, &sb); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`down after (\d+) missed probes`).FindStringSubmatch(sb.String())
	if m == nil {
		t.Fatalf("no heal banner in output:\n%s", sb.String())
	}
	if m[1] != strconv.Itoa(repair.FailThreshold) {
		t.Errorf("banner says down after %s missed probes, the probe law's K is %d", m[1], repair.FailThreshold)
	}
}

func TestRunServeHeal(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fetch", "4", "-heal", "-chaos", "0.3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"self-healing: supervisor probing",
		"fetched 4 pages",
		"repairs, ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
