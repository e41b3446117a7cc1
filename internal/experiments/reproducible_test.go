package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// TestStudiesBitReproducibleAtAnyWorkerCount backs the README/EXPERIMENTS
// claim for every study that averages runs through the collector: rendered
// at Workers 1 and at GOMAXPROCS, twice each, the CSV bytes never change.
// Runs fold in run order, not in the order the scheduler finished them —
// with three runs any other order moves the last bits of a mean.
func TestStudiesBitReproducibleAtAnyWorkerCount(t *testing.T) {
	csv := func(fig *stats.Figure, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = fig.WriteCSV(&buf)
		return buf.Bytes(), err
	}
	figure := func(study func(Options) (*stats.Figure, error)) func(Options) ([]byte, error) {
		return func(o Options) ([]byte, error) { return csv(study(o)) }
	}
	studies := []struct {
		name   string
		render func(Options) ([]byte, error)
	}{
		{"Figure1", figure(Figure1)},
		{"Figure2", figure(Figure2)},
		{"Figure3", figure(Figure3)},
		{"Drift", figure(Drift)},
		{"DegradedMode", figure(DegradedMode)},
		{"PeriodStudy", figure(PeriodStudy)},
		{"QueueingStudy", figure(QueueingStudy)},
		{"RedirectStudy", figure(RedirectStudy)},
		{"Sensitivity", figure(Sensitivity)},
		{"ThresholdStudy", figure(ThresholdStudy)},
		{"WeightsStudy", figure(WeightsStudy)},
		{"StorageEquivalence", func(o Options) ([]byte, error) {
			res, err := StorageEquivalence(o)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "%g,%g,%g\n", res.Fraction, res.LRUFull, res.LocalLevel)
			for _, frac := range StorageGrid {
				fmt.Fprintf(&buf, "%g,%g\n", frac, res.ProposedAt[frac])
			}
			return buf.Bytes(), nil
		}},
		{"Recovery", func(o Options) ([]byte, error) {
			res, err := Recovery(o)
			if err != nil {
				return nil, err
			}
			return csv(res.Timeline, nil)
		}},
		{"FlashCrowd", func(o Options) ([]byte, error) {
			res, err := FlashCrowd(o)
			if err != nil {
				return nil, err
			}
			return csv(res.Timeline, nil)
		}},
		{"Overload", func(o Options) ([]byte, error) {
			res, err := Overload(o)
			if err != nil {
				return nil, err
			}
			return csv(res.Timeline, nil)
		}},
	}
	for _, study := range studies {
		study := study
		t.Run(study.name, func(t *testing.T) {
			var ref []byte
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				for rep := 0; rep < 2; rep++ {
					o := tiny()
					o.Runs = 3
					o.Workers = workers
					got, err := study.render(o)
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = got
					} else if !bytes.Equal(got, ref) {
						t.Fatalf("Workers=%d render %d differs from the Workers=1 reference:\n%s\nvs\n%s", workers, rep+1, got, ref)
					}
				}
			}
		})
	}
}
