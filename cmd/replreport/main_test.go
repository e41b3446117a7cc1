package main

import (
	"os"
	"strings"
	"testing"

	"repro"
)

func TestRunReportQuick(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "quick", "-runs", "1", "-requests", "60"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# Reproduction report",
		"### Table 1: workload audit",
		"### Figure 1",
		"### Figure 2",
		"### Figure 3",
		"### Storage equivalence",
		"| storage % |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Extensions are opt-in.
	if strings.Contains(out, "### Ablations") || strings.Contains(out, "Sensitivity") {
		t.Error("extensions ran without -extensions")
	}
}

func TestRunReportToFile(t *testing.T) {
	path := t.TempDir() + "/report.md"
	var sb strings.Builder
	if err := run([]string{"-scale", "quick", "-runs", "1", "-requests", "50", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# Reproduction report") {
		t.Error("file report incomplete")
	}
	if !strings.Contains(sb.String(), "report written") {
		t.Error("no confirmation on stdout")
	}
}

func TestRunReportRejects(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "nope"}, &sb); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-zzz"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestRunReportExtensionsCoverEveryStudy: the report iterates the study
// table, so under -extensions every entry has a section — its heading when
// it has a text summary, its figure's title when it has a figure.
func TestRunReportExtensionsCoverEveryStudy(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scale", "quick", "-runs", "1", "-requests", "60", "-extensions"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	opts := repro.QuickExperiment()
	opts.Runs = 1
	opts.RequestsPerSite = 60
	for _, s := range repro.Studies {
		if s.Heading != "" {
			if !strings.Contains(out, "### "+s.Heading+"\n") {
				t.Errorf("%s: no %q section", s.Name, s.Heading)
			}
			continue
		}
		_, fig, err := s.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !strings.Contains(out, "### "+fig.Title+"\n") {
			t.Errorf("%s: no %q section", s.Name, fig.Title)
		}
	}
}
