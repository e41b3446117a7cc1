package estimate

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/workload"
)

// benchObservations pre-draws a request stream so the ingest benchmarks
// measure Observe alone, not the sampling.
func benchObservations(b *testing.B, w *workload.Workload, n int) []observation {
	b.Helper()
	obs := drawObservations(w, (n+w.NumSites()-1)/w.NumSites(), float64(n)/100, 1)
	if len(obs) < n {
		b.Fatalf("drew %d observations, need %d", len(obs), n)
	}
	return obs[:n]
}

// BenchmarkEWMAIngest measures one Observe on the exact per-page path.
func BenchmarkEWMAIngest(b *testing.B) {
	w := workload.MustGenerate(workload.SmallConfig(), 31)
	e, err := New(w, Config{HalfLife: 60})
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservations(b, w, 1<<14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := obs[i&(1<<14-1)]
		e.Observe(o.site, o.page, o.t)
	}
}

// BenchmarkDriftCheck measures one Detector.Check over a paper-scale
// frequency vector (L1 sweep plus top-k extraction).
func BenchmarkDriftCheck(b *testing.B) {
	const pages = 3000
	base := make([]float64, pages)
	cur := make([]float64, pages)
	s := rng.New(9)
	for i := range base {
		base[i] = s.Float64()
		cur[i] = base[i] * s.Uniform(0.8, 1.2)
	}
	d, err := NewDetector(base, DetectorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Check(cur); err != nil {
			b.Fatal(err)
		}
	}
}
