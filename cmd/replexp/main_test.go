package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro"
)

// quickArgs keeps the experiment tiny: 1 run, few requests.
func quickArgs(extra ...string) []string {
	return append([]string{"-scale", "quick", "-runs", "1", "-requests", "60"}, extra...)
}

func TestRunTable1(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("-exp", "table1"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 1") || !strings.Contains(sb.String(), "Hot pages") {
		t.Errorf("output incomplete:\n%s", sb.String())
	}
}

func TestRunFig2WithCSV(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run(quickArgs("-exp", "fig2", "-csv", dir), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Error("missing figure table")
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Proposed") {
		t.Error("CSV incomplete")
	}
}

func TestRunEquiv(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("-exp", "equiv"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "equivalence fraction") {
		t.Error("missing equivalence output")
	}
}

func TestRunExtensionNotInAll(t *testing.T) {
	// "-exp all" must not run the extensions (they're opt-in).
	var sb strings.Builder
	if err := run(quickArgs("-exp", "all"), &sb); err != nil {
		t.Fatal(err)
	}
	for _, notWant := range []string{"Ablations", "Drift:", "Redirection cost", "Sensitivity:"} {
		if strings.Contains(sb.String(), notWant) {
			t.Errorf("extension %q ran under -exp all", notWant)
		}
	}
	// But every paper artifact did.
	for _, want := range []string{"Table 1", "Figure 1", "Figure 2", "Figure 3", "equivalence"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("paper artifact %q missing under -exp all", want)
		}
	}
}

// TestRunReportQuick: -report writes the paper's sections, and without
// -extensions no extension study reaches the report.
func TestRunReportQuick(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	if err := run(quickArgs("-exp", "all", "-progress=false", "-report", path), io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	report := string(data)
	for _, want := range []string{
		"# Reproduction report",
		"### Table 1: workload audit",
		"### Figure 1",
		"### Figure 2",
		"### Figure 3",
		"### Storage equivalence",
		"| storage % |",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, notWant := range []string{"Ablations", "Drift:", "Redirection cost", "Sensitivity"} {
		if strings.Contains(report, notWant) {
			t.Errorf("extension %q reached the report without -extensions", notWant)
		}
	}
}

// TestRunReportToFile: a single study's report is still a whole document,
// and stdout says where it went.
func TestRunReportToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	var sb strings.Builder
	if err := run(quickArgs("-exp", "table1", "-report", path), &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "# Reproduction report") || !strings.Contains(string(data), "### Table 1: workload audit") {
		t.Errorf("file report incomplete:\n%s", data)
	}
	if !strings.Contains(sb.String(), "(report written to "+path+")") {
		t.Error("no confirmation on stdout")
	}
}

func TestRunReportRejects(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-scale", "nope", "-report", filepath.Join(dir, "report.md")}, &sb); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-zzz", "-report", filepath.Join(dir, "report.md")}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run(quickArgs("-exp", "table1", "-report", filepath.Join(dir, "no", "such", "dir.md")), &sb); err == nil {
		t.Error("unwritable report accepted")
	}
}

// headings returns a Markdown report's "#" and "###" heading lines.
func headings(report string) []string {
	var out []string
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "# ") || strings.HasPrefix(line, "### ") {
			out = append(out, line)
		}
	}
	return out
}

// TestReportMatchesStudyTable: under -exp all -extensions the report has a
// section per entry of the study table — its heading when it has a text
// summary, its figure's title when it has a figure — and its heading lines
// are those of the committed results/report.md, in the same order.
func TestReportMatchesStudyTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	if err := run(quickArgs("-exp", "all", "-extensions", "-progress=false", "-report", path), io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)

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

	committed, err := os.ReadFile("../../results/report.md")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := headings(out), headings(string(committed)); !slices.Equal(got, want) {
		t.Errorf("report headings\n%s\nbut results/report.md has\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestRunThresholdStudy(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("-exp", "threshold"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Threshold") {
		t.Error("missing threshold output")
	}
}

func TestRunRejects(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "nonsense"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-scale", "huge"}, &sb); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunPlot(t *testing.T) {
	var sb strings.Builder
	if err := run(quickArgs("-exp", "fig2", "-plot"), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "*=Proposed") {
		t.Error("plot legend missing")
	}
}

func TestRunRecovery(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "recovery", "-scale", "quick", "-runs", "1", "-progress=false"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"== Recovery: self-healing under a scripted site outage ==",
		"mean MTTR:",
		"Self-healing",
		"Fallback only",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
