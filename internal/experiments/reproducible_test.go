package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
)

// resultsDir holds the committed paper-scale CSVs, one per study with a
// figure.
const resultsDir = "../../results"

// checkCommittedCSV pins results/ to the study table: a study with a figure
// has results/<name>.csv whose header row — x label and series names — is
// the one the study emits; a study without a figure has no such file. (The
// values are paper-scale and pinned by longrun.yml, not here.)
func checkCommittedCSV(t *testing.T, name string, fig *stats.Figure) {
	t.Helper()
	committed, err := os.ReadFile(filepath.Join(resultsDir, name+".csv"))
	if fig == nil {
		if err == nil {
			t.Errorf("results/%s.csv exists but the study has no figure", name)
		}
		return
	}
	if err != nil {
		t.Errorf("results/ lacks the study's CSV: %v", err)
		return
	}
	var emitted bytes.Buffer
	if err := fig.WriteCSV(&emitted); err != nil {
		t.Fatal(err)
	}
	header := func(csv []byte) string {
		line, _, _ := bytes.Cut(csv, []byte("\n"))
		return string(line)
	}
	if got, want := header(committed), header(emitted.Bytes()); got != want {
		t.Errorf("results/%s.csv header is %q, the study emits %q", name, got, want)
	}
}

// TestResultsHoldNoStrayCSV: every CSV under results/ is named after a study
// in the table (with checkCommittedCSV: exactly one per figure).
func TestResultsHoldNoStrayCSV(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(resultsDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".csv")
		if !slices.ContainsFunc(Studies, func(s Study) bool { return s.Name == name }) {
			t.Errorf("%s is not named after any study in the table", f)
		}
	}
}

// TestStudiesBitReproducibleAtAnyWorkerCount backs the README/EXPERIMENTS
// claim for every entry of the study table: rendered at Workers 1 and at
// GOMAXPROCS, twice each, neither the result values nor a byte of the
// summary text and the figure's CSV ever change. Runs fold in run order, not
// in the order the scheduler finished them — with three runs any other order
// moves the last bits of a mean.
func TestStudiesBitReproducibleAtAnyWorkerCount(t *testing.T) {
	for _, s := range Studies {
		t.Run(s.Func, func(t *testing.T) {
			runs, reps := 3, 2
			if s.Name == "scrub" {
				// A live cluster, over a second per run and sensitive to a
				// loaded machine: two runs, one render per worker count,
				// and nothing else running beside it.
				runs, reps = 2, 1
			} else {
				t.Parallel()
			}
			var refSum Summary
			var refFig *stats.Figure
			var refText string
			first := true
			for _, workers := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
				for rep := 0; rep < reps; rep++ {
					o := tiny()
					o.Runs = runs
					o.Workers = workers
					sum, fig, err := s.Run(o)
					if err != nil {
						t.Fatal(err)
					}
					if (sum != nil) != (s.Heading != "") {
						t.Fatalf("heading %q on a study whose summary is %v", s.Heading, sum)
					}
					var text bytes.Buffer
					if sum != nil {
						if err := sum.Write(&text); err != nil {
							t.Fatal(err)
						}
					}
					if fig != nil {
						if err := fig.WriteCSV(&text); err != nil {
							t.Fatal(err)
						}
					}
					if first {
						refSum, refFig, refText, first = sum, fig, text.String(), false
						checkCommittedCSV(t, s.Name, fig)
						continue
					}
					if text.String() != refText {
						t.Fatalf("Workers=%d render %d differs from the Workers=1 reference:\n%s\nvs\n%s", workers, rep+1, text.String(), refText)
					}
					if !reflect.DeepEqual(sum, refSum) || !reflect.DeepEqual(fig, refFig) {
						t.Fatalf("Workers=%d render %d: same bytes, different result values:\n%+v\nvs\n%+v", workers, rep+1, sum, refSum)
					}
				}
			}
		})
	}
}
