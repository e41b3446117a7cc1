package htmlrefs

import (
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func benchWorkload(b *testing.B) *workload.Workload {
	b.Helper()
	return workload.MustGenerate(workload.SmallConfig(), 55)
}

// BenchmarkParseRefs measures the HTML reference scanner on a realistic
// page (the parse happens once per page creation/update in the paper's
// system).
func BenchmarkParseRefs(b *testing.B) {
	w := benchWorkload(b)
	doc := RenderPage(w, 0, "http://repo.example")
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if refs := ParseRefs(doc); len(refs) == 0 {
			b.Fatal("no refs")
		}
	}
}

// BenchmarkRenderPage measures rendering one page's stored document, which
// happens once per page creation/update, and per request for the
// repository's master copy.
func BenchmarkRenderPage(b *testing.B) {
	w := benchWorkload(b)
	doc := RenderPage(w, 0, "http://repo.example")
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if doc = RenderPage(w, 0, "http://repo.example"); len(doc) == 0 {
			b.Fatal("empty document")
		}
	}
}

// BenchmarkServeRewrite measures the on-the-fly URL rewrite — the per-page
// serving cost the paper argues is "minimal compared to the network
// latency".
func BenchmarkServeRewrite(b *testing.B) {
	w := benchWorkload(b)
	db, err := BuildRefDB(w, 0, model.AllLocal(w), "http://repo.example")
	if err != nil {
		b.Fatal(err)
	}
	pid := w.Sites[0].Pages[0]
	doc, _ := db.Serve(pid, "http://s0.example")
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Serve(pid, "http://s0.example"); !ok {
			b.Fatal("page lost")
		}
	}
}

// BenchmarkBuildRefDB measures one site's database construction (page
// creation time, not serving time).
func BenchmarkBuildRefDB(b *testing.B) {
	w := benchWorkload(b)
	p := model.AllLocal(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRefDB(w, 0, p, "http://repo.example"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefDBRebuild measures one site's database adopting a new plan
// for the same pages at the paper's Table-1 scale (per-site page and pool
// counts pinned at the midpoints of their ranges, as the benchmark's
// Table-1 workloads are): every iteration flips every reference between
// all-local and all-remote.
func BenchmarkRefDBRebuild(b *testing.B) {
	w := table1Workload(b)
	plans := [2]*model.Placement{model.AllLocal(w), model.AllRemote(w)}
	db, err := BuildRefDB(w, 0, plans[1], "http://repo.example")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Rebuild(w, plans[i%2], "http://repo.example"); err != nil {
			b.Fatal(err)
		}
	}
}
