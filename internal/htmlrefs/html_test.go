package htmlrefs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	return workload.MustGenerate(workload.SmallConfig(), 55)
}

// table1Workload is the paper's Table-1 workload with per-site page and
// pool counts pinned at the midpoints of their ranges, as the benchmark's
// Table-1 workloads are.
func table1Workload(tb testing.TB) *workload.Workload {
	tb.Helper()
	cfg := workload.DefaultConfig()
	cfg.PagesPerSiteMin = (cfg.PagesPerSiteMin + cfg.PagesPerSiteMax) / 2
	cfg.PagesPerSiteMax = cfg.PagesPerSiteMin
	cfg.ObjectsPerSite = (cfg.ObjectsPerSite + cfg.ObjectsPerMax) / 2
	cfg.ObjectsPerMax = cfg.ObjectsPerSite
	return workload.MustGenerate(cfg, 1)
}

func TestPaths(t *testing.T) {
	if MOPath(42) != "/mo/42" || PagePath(7) != "/page/7" {
		t.Error("path rendering wrong")
	}
	if k, ok := ParseMOPath("/mo/42"); !ok || k != 42 {
		t.Error("ParseMOPath failed")
	}
	for _, bad := range []string{"/mo/", "/mo/x", "/mo/-1", "/page/3", "/other"} {
		if _, ok := ParseMOPath(bad); ok {
			t.Errorf("ParseMOPath accepted %q", bad)
		}
	}
	if j, ok := ParsePagePath("/page/9"); !ok || j != 9 {
		t.Error("ParsePagePath failed")
	}
	if _, ok := ParsePagePath("/mo/9"); ok {
		t.Error("ParsePagePath accepted an MO path")
	}
}

func TestRenderPageSize(t *testing.T) {
	w := testWorkload(t)
	doc := RenderPage(w, 0, "http://repo")
	// Padded to approximately HTMLSize (within one filler paragraph).
	want := int(w.Pages[0].HTMLSize)
	if len(doc) < want-200 {
		t.Errorf("document %d bytes, want ≈%d", len(doc), want)
	}
	if !bytes.HasPrefix(doc, []byte("<!DOCTYPE html>")) {
		t.Error("not an HTML document")
	}
}

func TestParseRefsRecoversAll(t *testing.T) {
	w := testWorkload(t)
	for j := range w.Pages {
		pid := workload.PageID(j)
		doc := RenderPage(w, pid, "http://repo.example:8080")
		refs := ParseRefs(doc)
		var comp, opt int
		for _, r := range refs {
			if r.Optional {
				opt++
			} else {
				comp++
			}
			// The byte range must hold the URL it claims.
			url := doc[r.Start:r.End]
			if k, ok := parseMOURL(url); !ok || k != r.Object {
				t.Fatalf("page %d: range [%d,%d) holds %q, not object %d", j, r.Start, r.End, url, r.Object)
			}
		}
		if comp != len(w.Pages[j].Compulsory) {
			t.Fatalf("page %d: parsed %d compulsory refs, want %d", j, comp, len(w.Pages[j].Compulsory))
		}
		if opt != len(w.Pages[j].Optional) {
			t.Fatalf("page %d: parsed %d optional refs, want %d", j, opt, len(w.Pages[j].Optional))
		}
	}
}

// nonASCIIAttrCases put a character before the wanted attribute whose
// lower case has a different UTF-8 length (İ, the Kelvin sign) or that is
// not UTF-8 at all; a scanner that lower-cases the attributes and slices
// the original bytes shifts these references or loses them.
var nonASCIIAttrCases = []struct {
	doc  string
	want Ref
}{
	{"<img \u0130 src=\"/mo/12\">", Ref{Object: 12, Start: 13, End: 19}},
	{"<a \u0130\u0130 href=\"/mo/345\">", Ref{Object: 345, Optional: true, Start: 14, End: 21}},
	{"<img \u212a src=\"/mo/12\">", Ref{Object: 12, Start: 14, End: 20}},
	{"<img \xff src=\"/mo/12\">", Ref{Object: 12, Start: 12, End: 18}},
}

func TestParseRefsNonASCIIOffsets(t *testing.T) {
	for _, c := range nonASCIIAttrCases {
		if got := ParseRefs([]byte(c.doc)); !reflect.DeepEqual(got, []Ref{c.want}) {
			t.Errorf("ParseRefs(%q) = %+v, want [%+v]", c.doc, got, c.want)
		}
	}
}

func TestParseRefsIgnoresNoise(t *testing.T) {
	doc := []byte(`<html><body>
<img src="http://cdn/logo.png">
<a href="http://elsewhere/page/3">not an MO</a>
<img data-src="/mo/7" alt="lazy — no real src">
<IMG SRC="http://repo/mo/12">
<a href="/mo/99">relative optional</a>
<p>plain /mo/5 text is not a tag</p>
</body></html>`)
	refs := ParseRefs(doc)
	if len(refs) != 2 {
		t.Fatalf("parsed %d refs, want 2: %+v", len(refs), refs)
	}
	if refs[0].Object != 12 || refs[0].Optional {
		t.Errorf("first ref = %+v, want compulsory M12", refs[0])
	}
	if refs[1].Object != 99 || !refs[1].Optional {
		t.Errorf("second ref = %+v, want optional M99", refs[1])
	}
}

func TestParseRefsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("<"),
		[]byte("<img src=\"/mo/3"),       // unterminated attribute
		[]byte("<img src=/mo/3>"),        // unquoted (unsupported, skipped)
		[]byte("no tags at all /mo/3"),   // no tags
		[]byte("<img\nsrc=\"/mo/3\"\n>"), // newlines inside tag
	}
	for i, doc := range cases {
		refs := ParseRefs(doc) // must not panic
		if i == len(cases)-1 && len(refs) != 1 {
			t.Errorf("newline tag: parsed %d refs, want 1", len(refs))
		}
	}
}

func TestBuildRefDBAndServe(t *testing.T) {
	w := testWorkload(t)
	p := model.AllLocal(w)
	const repoBase = "http://repo.example"
	const localBase = "http://s0.example"
	db, err := BuildRefDB(w, 0, p, repoBase)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.entries) != len(w.Sites[0].Pages) {
		t.Errorf("db has %d pages", len(db.entries))
	}

	pid := w.Sites[0].Pages[0]
	doc, ok := db.Serve(pid, localBase)
	if !ok {
		t.Fatal("hosted page not served")
	}
	// All-local: every MO URL must now point at the local server.
	if bytes.Contains(doc, []byte(repoBase+MOPathPrefix)) {
		t.Error("all-local page still references the repository")
	}
	refs := ParseRefs(doc)
	if len(refs) != len(w.Pages[pid].Compulsory)+len(w.Pages[pid].Optional) {
		t.Errorf("served doc has %d refs", len(refs))
	}
	for _, r := range refs {
		url := string(doc[r.Start:r.End])
		if !strings.HasPrefix(url, localBase) {
			t.Fatalf("ref %d not rewritten: %q", r.Object, url)
		}
	}

	if _, ok := db.Serve(workload.PageID(w.NumPages()+5), localBase); ok {
		t.Error("served a page out of range")
	}
}

func TestServeAllRemoteKeepsRepoURLs(t *testing.T) {
	w := testWorkload(t)
	p := model.AllRemote(w)
	const repoBase = "http://repo.example"
	db, err := BuildRefDB(w, 0, p, repoBase)
	if err != nil {
		t.Fatal(err)
	}
	pid := w.Sites[0].Pages[0]
	doc, _ := db.Serve(pid, "http://s0.example")
	stored := RenderPage(w, pid, repoBase)
	if !bytes.Equal(doc, stored) {
		t.Error("all-remote serving should be the identity rewrite")
	}
}

func TestServeMixedSplit(t *testing.T) {
	w := testWorkload(t)
	// Build a mixed placement: alternate compulsory objects local.
	p := model.NewPlacement(w)
	for j := range w.Pages {
		pg := &w.Pages[j]
		for idx, k := range pg.Compulsory {
			if idx%2 == 0 {
				p.Store(pg.Site, k)
				p.SetCompLocal(workload.PageID(j), idx, true)
			}
		}
	}
	const repoBase = "http://repo.example"
	const localBase = "http://s1.example"
	db, err := BuildRefDB(w, 1, p, repoBase)
	if err != nil {
		t.Fatal(err)
	}
	pid := w.Sites[1].Pages[0]
	doc, _ := db.Serve(pid, localBase)
	refs := ParseRefs(doc)
	pg := &w.Pages[pid]
	compIdx := map[workload.ObjectID]int{}
	for idx, k := range pg.Compulsory {
		compIdx[k] = idx
	}
	for _, r := range refs {
		url := string(doc[r.Start:r.End])
		if r.Optional {
			if !strings.HasPrefix(url, repoBase) {
				t.Fatalf("optional M%d should stay remote: %q", r.Object, url)
			}
			continue
		}
		wantLocal := compIdx[r.Object]%2 == 0
		isLocal := strings.HasPrefix(url, localBase)
		if isLocal != wantLocal {
			t.Fatalf("M%d (idx %d): local=%v want %v (%q)", r.Object, compIdx[r.Object], isLocal, wantLocal, url)
		}
	}
}

func TestApplyPlacementUpdatesServing(t *testing.T) {
	w := testWorkload(t)
	const repoBase = "http://repo.example"
	const localBase = "http://s0.example"
	db, err := BuildRefDB(w, 0, model.AllRemote(w), repoBase)
	if err != nil {
		t.Fatal(err)
	}
	pid := w.Sites[0].Pages[0]
	before, _ := db.Serve(pid, localBase)
	if bytes.Contains(before, []byte(localBase)) {
		t.Fatal("all-remote serving contains local URLs")
	}
	if err := db.Rebuild(w, model.AllLocal(w), repoBase); err != nil {
		t.Fatal(err)
	}
	after, _ := db.Serve(pid, localBase)
	if bytes.Contains(after, []byte(repoBase+MOPathPrefix)) {
		t.Fatal("placement update did not take effect")
	}
}

func TestRefDBDecisions(t *testing.T) {
	w := testWorkload(t)
	db, err := BuildRefDB(w, 0, model.AllLocal(w), "http://repo")
	if err != nil {
		t.Fatal(err)
	}
	pid := w.Sites[0].Pages[0]
	entry, ok := db.entries[pid]
	if !ok || len(entry.Refs) != len(entry.Local) {
		t.Fatal("decisions unavailable")
	}
	for _, v := range entry.Local {
		if !v {
			t.Fatal("all-local decisions should be true")
		}
	}
	if _, ok := db.entries[workload.PageID(w.NumPages()+1)]; ok {
		t.Error("decisions for unknown page")
	}
}

// TestRenderPageMatchesReference holds RenderPage to refRenderPage, the
// fmt-driven renderer it replaced, byte for byte on every page of a
// SmallConfig workload and of a pinned Table-1 workload under two
// repository bases, and checks that each document fills the buffer it was
// sized for exactly.
func TestRenderPageMatchesReference(t *testing.T) {
	for _, w := range []*workload.Workload{testWorkload(t), table1Workload(t)} {
		for _, base := range []string{"http://repo.example", "http://10.0.0.7:38021/mirror"} {
			for j := range w.Pages {
				got, want := RenderPage(w, workload.PageID(j), base), refRenderPage(w, workload.PageID(j), base)
				if !bytes.Equal(got, want) {
					t.Fatalf("page %d at %s: RenderPage differs from the reference renderer", j, base)
				}
				if cap(got) != len(got) {
					t.Fatalf("page %d at %s: %d-byte document in a %d-byte buffer", j, base, len(got), cap(got))
				}
			}
		}
	}
}

// TestKernelAllocs pins the kernels' allocations on a Table-1 page: one
// buffer per RenderPage, and nothing in ParseRefs but the growth of the
// slice it returns.
func TestKernelAllocs(t *testing.T) {
	w := table1Workload(t)
	pid := w.Sites[0].Pages[0]
	if n := testing.AllocsPerRun(20, func() { RenderPage(w, pid, "http://repo.example") }); n != 1 {
		t.Errorf("RenderPage: %v allocations, want 1", n)
	}
	doc := RenderPage(w, pid, "http://repo.example")
	nrefs := len(ParseRefs(doc))
	if nrefs == 0 {
		t.Fatal("page has no references")
	}
	result := testing.AllocsPerRun(20, func() {
		var refs []Ref
		for range nrefs {
			refs = append(refs, Ref{})
		}
		_ = refs
	})
	if n := testing.AllocsPerRun(20, func() { ParseRefs(doc) }); n != result {
		t.Errorf("ParseRefs: %v allocations, want %v (growing its %d-reference result)", n, result, nrefs)
	}
}

func TestRenderDeterministic(t *testing.T) {
	w := testWorkload(t)
	a := RenderPage(w, 3, "http://repo")
	b := RenderPage(w, 3, "http://repo")
	if !bytes.Equal(a, b) {
		t.Error("rendering not deterministic")
	}
}

func TestPadRespectsTarget(t *testing.T) {
	b := pad(nil, 5*units.KB)
	if len(b) < 4*1024 || len(b) > 6*1024 {
		t.Errorf("pad produced %d bytes for 5KB target", len(b))
	}
}

// TestParseRefsSingleQuotesUnsupported documents a deliberate limitation:
// the scanner only recognizes double-quoted attribute values, which is what
// RenderPage emits. Hand-authored single-quoted documents are not split
// candidates (the reference DB validates coverage at build time, so such a
// page would fail loudly in BuildRefDB rather than silently misroute).
func TestParseRefsSingleQuotesUnsupported(t *testing.T) {
	doc := []byte(`<img src='/mo/3'>`)
	if refs := ParseRefs(doc); len(refs) != 0 {
		t.Errorf("single-quoted attribute unexpectedly parsed: %+v", refs)
	}
}
