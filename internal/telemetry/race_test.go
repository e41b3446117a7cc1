package telemetry

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentObserveSnapshot hammers one registry's counters and gauges
// from many goroutines while snapshotters run alongside, and checks that a
// counter read through successive snapshots never runs backwards. Run
// under -race (scripts/ci.sh does) this also proves the whole hot path and
// the registry's lazy lookups are data-race free.
func TestConcurrentObserveSnapshot(t *testing.T) {
	const (
		writers = 8
		iters   = 2000
	)
	r := NewRegistry()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Snapshot readers: the monotonicity check plus the text/JSON encoders.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for !stop.Load() {
				snap := r.Snapshot()
				n := snap.CounterValue("race.requests_total")
				if n < last || n > writers*iters {
					t.Errorf("counter read %d after %d (max %d)", n, last, writers*iters)
					return
				}
				last = n
				var buf bytes.Buffer
				if err := snap.WriteText(&buf); err != nil {
					t.Errorf("WriteText: %v", err)
					return
				}
				buf.Reset()
				if err := snap.WriteJSON(&buf); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < iters; i++ {
				// Lazy lookups race the registry maps on purpose.
				r.Counter("race.requests_total").Inc()
				r.Gauge("race.inflight").Set(float64(i))
			}
		}()
	}
	writerWG.Wait()
	stop.Store(true)
	wg.Wait()

	if got := r.Counter("race.requests_total").Value(); got != writers*iters {
		t.Fatalf("counter = %d, want %d", got, writers*iters)
	}
}
