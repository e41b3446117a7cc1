package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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

// studyRenderSHA pins the SHA-256 of every simulator-driven study's
// reference render (summary text + figure CSV at tiny(), three runs,
// Workers 1) as it stood before internal/httpsim's two request loops were
// merged. Comparing a study with itself would pass a change that moved it
// the same way at every worker count; this table does not. overload runs
// its own event loop and was pinned, at the parent commit, when its boxed
// event queue became a typed heap. recovery calls no simulator but renders
// the probe law's detection and recovery times, so a change to that law
// moves its hash; it was pinned before E11 began to drive the law's step
// machine. table1 and scrub are not listed.
var studyRenderSHA = map[string]string{
	"fig1":        "74e0b072cc59e91b8cbcbc38cef6fc63ee989d67af796adc3ebf3c4c81ef4c3f",
	"fig2":        "12f671eb4db1aec0478a1e7a2bab57e671071ca597efc99f80042f25450e369a",
	"fig3":        "314b3f8603e2e1deb95670867d5ee228eb787b2a91138ecf7313e83aeb8e6205",
	"equiv":       "64880921649e7ddc552b88f7d56a8edac92d36c28b694b66868c38aaaec3bc38",
	"ablation":    "0d5c2344cf16739912ee384e71799d58e575dc77d43d638bffd521d783b47b4c",
	"drift":       "2dc103f102e81d0a42be9784210724a66231fc549f26a0840d931c99bc7818ca",
	"redirect":    "e98351cd12d5e407a171dde59fd37db93a2ea6a66a8605e5380d9aaf11935630",
	"sensitivity": "d9908a0a423f00d5f10bd59d8fa93a69d52a473a87cb5ee16b4dc3b09a3a9fde",
	"threshold":   "8b459a7fd94ee2466803f7eb28e3bf5bb089b2bffc4bd245fdfbce3c828ab656",
	"queueing":    "5e7d44f0627e0f6df159d70f3c4b5c5b881331a0295c5a5221b76ead16eae5ad",
	"period":      "971ed9628af468169c549e9c71d6e1eaadb7af75b8ce9e5c7584abdf9c4071b6",
	"weights":     "f7ff257c60992a0b6aad04b3a05303c153170f82dc133b04778ebb6670b98c9b",
	"degraded":    "21b0d1b81edd711bb34f1bc9c6fdc9c68e03b4d1d1248326f7b9c95f22d56832",
	"critpath":    "1b266292f396e35089b84ca95c92f4b38d48f9389d2a752f8a373ab8b4c579f5",
	"flashcrowd":  "f5e8eb0a1d7490451336ce5e3cdfa7463a9e496d2f70432a9cb0964d968ca328",
	"overload":    "94cce73437c28f61673add37a72397b08af928698f723a15f402dbfc0d484c4b",
	"recovery":    "489a180204169613f59ff7b0fb5bcf803e21bd40859449bea542ee12435171fd",
}

// TestStudiesBitReproducibleAtAnyWorkerCount backs the README/EXPERIMENTS
// claim for every entry of the study table: rendered at Workers 1 and at
// GOMAXPROCS, twice each, neither the result values nor a byte of the
// summary text and the figure's CSV ever change. Runs fold in run order, not
// in the order the scheduler finished them — with three runs any other order
// moves the last bits of a mean. The reference render of every study in
// studyRenderSHA must also hash to its pinned value.
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
						got := fmt.Sprintf("%x", sha256.Sum256([]byte(refText)))
						if want, ok := studyRenderSHA[s.Name]; ok && got != want {
							t.Errorf("reference render hashes to %s, pinned %s:\n%s", got, want, refText)
						}
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
