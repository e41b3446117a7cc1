package workload

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestGenerateSmallValid(t *testing.T) {
	w := MustGenerate(SmallConfig(), 1)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.NumSites() != 4 {
		t.Errorf("sites = %d", w.NumSites())
	}
	if w.NumObjects() != 800 {
		t.Errorf("objects = %d", w.NumObjects())
	}
	if w.NumPages() < 4*30 || w.NumPages() > 4*60 {
		t.Errorf("pages = %d outside expected range", w.NumPages())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(SmallConfig(), 99)
	b := MustGenerate(SmallConfig(), 99)
	var bufA, bufB bytes.Buffer
	if err := a.Encode(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Encode(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("same (config, seed) produced different workloads")
	}
	c := MustGenerate(SmallConfig(), 100)
	var bufC bytes.Buffer
	if err := c.Encode(&bufC); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA.Bytes(), bufC.Bytes()) {
		t.Error("different seeds produced identical workloads")
	}
}

// TestGenerateAllocs is a ratchet on the generator's allocations: the
// per-page path allocates the reference sample and, on the pages that have
// them, the optional links; compulsory lists come from per-site slabs, and
// neither the sampler nor Validate allocates per page. A Go map on that
// path adds at least one allocation per page (174 pages here). The ceiling
// is the measured count.
func TestGenerateAllocs(t *testing.T) {
	const ceiling = 284
	if got := testing.AllocsPerRun(5, func() { MustGenerate(SmallConfig(), 3) }); got > ceiling {
		t.Errorf("Generate(SmallConfig(), 3): %v allocs, want <= %d", got, ceiling)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := func(mutate func(*Config)) Config {
		c := DefaultConfig()
		mutate(&c)
		return c
	}
	cases := map[string]Config{
		"zero sites":       bad(func(c *Config) { c.Sites = 0 }),
		"inverted pages":   bad(func(c *Config) { c.PagesPerSiteMax = c.PagesPerSiteMin - 1 }),
		"hot frac":         bad(func(c *Config) { c.HotPageFrac = 1.5 }),
		"hot share":        bad(func(c *Config) { c.HotTrafficShare = -0.1 }),
		"compulsory":       bad(func(c *Config) { c.CompulsoryMin = 0 }),
		"optional range":   bad(func(c *Config) { c.OptionalMax = c.OptionalMin - 1 }),
		"global objects":   bad(func(c *Config) { c.GlobalObjects = 0 }),
		"pool too big":     bad(func(c *Config) { c.ObjectsPerMax = c.GlobalObjects + 1 }),
		"page over pool":   bad(func(c *Config) { c.ObjectsPerSite = 10 }),
		"no HTML classes":  bad(func(c *Config) { c.HTMLClasses = nil }),
		"bad MO classes":   bad(func(c *Config) { c.MOClasses[0].Frac = 0.9 }),
		"interest prob":    bad(func(c *Config) { c.OptionalInterestProb = 2 }),
		"request frac":     bad(func(c *Config) { c.OptionalRequestFrac = -1 }),
		"neg capacity":     bad(func(c *Config) { c.SiteCapacity = -1 }),
		"zero page rate":   bad(func(c *Config) { c.PageRatePerSite = 0 }),
		"zero requests":    bad(func(c *Config) { c.RequestsPerSite = 0 }),
		"zero weights":     bad(func(c *Config) { c.Alpha1, c.Alpha2 = 0, 0 }),
		"negative weights": bad(func(c *Config) { c.Alpha1 = -1 }),
	}
	for name, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	c := DefaultConfig()
	c.Sites = -1
	if _, err := Generate(c, 1); err == nil {
		t.Error("expected error")
	}
}

// TestWorkloadMatchesTable1 audits a full-size workload against the paper's
// Table 1 (experiment S2 in DESIGN.md). This is the slowest workload test
// (~1 s) but it pins the generator to the paper.
func TestWorkloadMatchesTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table-1 workload generation in -short mode")
	}
	w := MustGenerate(DefaultConfig(), 2026)
	s := Summarize(w)

	if s.Sites != 10 {
		t.Errorf("sites = %d, want 10", s.Sites)
	}
	if s.Objects != 15000 {
		t.Errorf("objects = %d, want 15000", s.Objects)
	}
	if s.PagesPerSite.Min() < 400 || s.PagesPerSite.Max() > 800 {
		t.Errorf("pages per site range [%v,%v], want within [400,800]", s.PagesPerSite.Min(), s.PagesPerSite.Max())
	}
	if s.ObjectsPerSite.Min() < 1500 || s.ObjectsPerSite.Max() > 4500 {
		t.Errorf("objects per site range [%v,%v]", s.ObjectsPerSite.Min(), s.ObjectsPerSite.Max())
	}
	if s.CompPerPage.Min() < 5 || s.CompPerPage.Max() > 45 {
		t.Errorf("compulsory per page range [%v,%v]", s.CompPerPage.Min(), s.CompPerPage.Max())
	}
	if s.OptPerPage.N() > 0 && (s.OptPerPage.Min() < 10 || s.OptPerPage.Max() > 85) {
		t.Errorf("optional per page range [%v,%v]", s.OptPerPage.Min(), s.OptPerPage.Max())
	}
	optFrac := float64(s.OptionalPages) / float64(s.Pages)
	if math.Abs(optFrac-0.10) > 0.02 {
		t.Errorf("optional page fraction = %v, want ~0.10", optFrac)
	}
	hotFrac := float64(s.HotPages) / float64(s.Pages)
	if math.Abs(hotFrac-0.10) > 0.01 {
		t.Errorf("hot page fraction = %v, want ~0.10", hotFrac)
	}
	if math.Abs(s.HotTraffic-0.60) > 0.02 {
		t.Errorf("hot traffic share = %v, want ~0.60", s.HotTraffic)
	}
	// §5.2: 100 % storage ≈ 1.8 GB on average.
	avgGB := s.FullStorage.Mean() / float64(units.GB)
	if avgGB < 1.4 || avgGB > 2.3 {
		t.Errorf("average 100%%-storage = %.2f GB, want ≈1.8 GB", avgGB)
	}
	// Aggregate page rate per site equals the configured 5 req/s.
	if math.Abs(s.PageRate.Mean()-5) > 1e-6 {
		t.Errorf("page rate per site = %v, want 5", s.PageRate.Mean())
	}
}

// trafficShare returns, for one site, the fraction of its page-request rate
// carried by its top `frac` most-requested pages.
func trafficShare(w *Workload, i SiteID, frac float64) float64 {
	pages := w.Sites[i].Pages
	freqs := make([]float64, len(pages))
	total := 0.0
	for idx, pid := range pages {
		freqs[idx] = float64(w.Pages[pid].Freq)
		total += freqs[idx]
	}
	if total == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(freqs)))
	top := int(float64(len(freqs))*frac + 0.5)
	sum := 0.0
	for idx := 0; idx < top && idx < len(freqs); idx++ {
		sum += freqs[idx]
	}
	return sum / total
}

func TestTrafficShareSkew(t *testing.T) {
	w := MustGenerate(SmallConfig(), 7)
	for i := 0; i < w.NumSites(); i++ {
		share := trafficShare(w, SiteID(i), 0.10)
		if share < 0.5 || share > 0.7 {
			t.Errorf("site %d: top-10%% pages carry %.2f of traffic, want ~0.60", i, share)
		}
	}
}

func TestPageFrequenciesSumToSiteRate(t *testing.T) {
	w := MustGenerate(SmallConfig(), 13)
	for i := range w.Sites {
		sum := 0.0
		for _, pid := range w.Sites[i].Pages {
			sum += float64(w.Pages[pid].Freq)
		}
		if math.Abs(sum-float64(w.Config.PageRatePerSite)) > 1e-9 {
			t.Errorf("site %d frequencies sum to %v, want %v", i, sum, w.Config.PageRatePerSite)
		}
	}
}

func TestFullStorageIncludesEverything(t *testing.T) {
	w := MustGenerate(SmallConfig(), 21)
	for i := range w.Sites {
		full := w.FullStorageBytes(SiteID(i))
		html := w.HTMLStorageBytes(SiteID(i))
		if full <= html {
			t.Errorf("site %d: full storage %v not above HTML-only %v", i, full, html)
		}
	}
}

func TestFullStorageCountsSharedObjectsOnce(t *testing.T) {
	// Two pages sharing one object: the object's bytes appear once.
	w := &Workload{
		Objects: []Object{{ID: 0, Size: 100}},
		Pages: []Page{
			{ID: 0, Site: 0, HTMLSize: 10, Compulsory: []ObjectID{0}},
			{ID: 1, Site: 0, HTMLSize: 10, Compulsory: []ObjectID{0}},
		},
		Sites: []Site{{ID: 0, Pages: []PageID{0, 1}, Objects: []ObjectID{0}}},
	}
	if got := w.FullStorageBytes(0); got != 120 {
		t.Errorf("FullStorageBytes = %d, want 120", got)
	}
}

// TestValidateCatchesCorruption breaks one invariant per case and checks
// that the error names the page (or the object or site) that broke it. The
// last cases move an object between neighbouring pages' lists, which must
// stay valid: a page's marks must not be read as the next page's.
func TestValidateCatchesCorruption(t *testing.T) {
	// optPage returns the first page j whose next page is on the same site
	// and where page j+off has optional links.
	optPage := func(w *Workload, off int) int {
		for j := 0; j+1 < w.NumPages(); j++ {
			if w.Pages[j].Site == w.Pages[j+1].Site && len(w.Pages[j+off].Optional) > 0 {
				return j
			}
		}
		t.Fatal("no page with optional links")
		return 0
	}
	lists := func(p *Page, k ObjectID) bool {
		for _, c := range p.Compulsory {
			if c == k {
				return true
			}
		}
		for _, l := range p.Optional {
			if l.Object == k {
				return true
			}
		}
		return false
	}
	cases := []struct {
		name    string
		corrupt func(w *Workload) string // the text the error must hold, or "" if still valid
	}{
		{"page on a site it is not listed under", func(w *Workload) string {
			w.Pages[0].Site = SiteID(w.NumSites())
			return "page 0 says site"
		}},
		{"out-of-range compulsory object", func(w *Workload) string {
			w.Pages[0].Compulsory = append(w.Pages[0].Compulsory, ObjectID(w.NumObjects()))
			return fmt.Sprintf("page 0 compulsory object %d out of range", w.NumObjects())
		}},
		{"duplicate compulsory object", func(w *Workload) string {
			k := w.Pages[0].Compulsory[0]
			w.Pages[0].Compulsory = append(w.Pages[0].Compulsory, k)
			return fmt.Sprintf("page 0 lists compulsory object %d twice", k)
		}},
		{"zero object size", func(w *Workload) string {
			w.Objects[0].Size = 0
			return "object 0 has size 0"
		}},
		{"negative HTML size", func(w *Workload) string {
			w.Pages[1].HTMLSize = -1
			return "page 1 has HTML size -1"
		}},
		{"page on two sites", func(w *Workload) string {
			pid := w.Sites[0].Pages[0]
			w.Sites[1].Pages = append(w.Sites[1].Pages, pid)
			return fmt.Sprintf("page %d hosted by sites 0 and 1", pid)
		}},
		{"object both compulsory and optional", func(w *Workload) string {
			j := optPage(w, 0)
			k := w.Pages[j].Compulsory[0]
			w.Pages[j].Optional[0].Object = k
			return fmt.Sprintf("page %d object %d is both compulsory and optional", j, k)
		}},
		{"duplicate optional object", func(w *Workload) string {
			j := optPage(w, 0)
			l := w.Pages[j].Optional[0]
			w.Pages[j].Optional = append(w.Pages[j].Optional, l)
			return fmt.Sprintf("page %d lists optional object %d twice", j, l.Object)
		}},
		{"compulsory on page j, optional on page j+1", func(w *Workload) string {
			j := optPage(w, 1)
			for _, k := range w.Pages[j].Compulsory {
				if !lists(&w.Pages[j+1], k) {
					w.Pages[j+1].Optional[0].Object = k
					return ""
				}
			}
			t.Fatalf("page %d lists every compulsory object of page %d", j+1, j)
			return ""
		}},
		{"optional on page j, compulsory on page j+1", func(w *Workload) string {
			j := optPage(w, 0)
			for _, l := range w.Pages[j].Optional {
				if !lists(&w.Pages[j+1], l.Object) {
					w.Pages[j+1].Compulsory[0] = l.Object
					return ""
				}
			}
			t.Fatalf("page %d lists every optional object of page %d", j+1, j)
			return ""
		}},
	}
	for _, c := range cases {
		w := MustGenerate(SmallConfig(), 3)
		want := c.corrupt(w)
		err := w.Validate()
		switch {
		case want == "" && err != nil:
			t.Errorf("%s: still valid, got %v", c.name, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: got %v, want an error holding %q", c.name, err, want)
		}
	}
}

// TestValidatePlannerWidths pins the two widths the planner packs into
// single words: the limit passes, one past it is an error naming the page.
func TestValidatePlannerWidths(t *testing.T) {
	w := MustGenerate(SmallConfig(), 3)
	k := w.Pages[5].Compulsory[0]
	w.Objects[k].Size = MaxObjectSize
	if err := w.Validate(); err != nil {
		t.Errorf("object of MaxObjectSize rejected: %v", err)
	}
	w.Objects[k].Size++
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "page ") || !strings.Contains(err.Error(), "size") {
		t.Errorf("oversized compulsory object: got %v, want an error naming the page and the size", err)
	}
	w.Objects[k].Size = 1

	keep := w.Pages[5].Optional
	w.Pages[5].Optional = make([]OptionalLink, 1<<PageRefBits+1)
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "page 5 lists") {
		t.Errorf("page with 2^%d+1 optional links: got %v, want an error naming page 5", PageRefBits, err)
	}
	w.Pages[5].Optional = keep
	w.Pages[5].Compulsory = make([]ObjectID, 1<<PageRefBits+1)
	if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "page 5 lists") {
		t.Errorf("page with 2^%d+1 compulsory objects: got %v, want an error naming page 5", PageRefBits, err)
	}
}

// TestPartitionOrderWidestPage builds the PARTITION order of a page at
// Validate's limit, 1<<PageRefBits compulsory objects: every index, the
// largest included, must survive PartitionOrder's 16-bit entries, in
// decreasing size with equal sizes in page order.
func TestPartitionOrderWidestPage(t *testing.T) {
	w := &Workload{
		Pages: []Page{{HTMLSize: 1, Freq: 1}},
		Sites: []Site{{Pages: []PageID{0}}},
	}
	for k := range 1 << PageRefBits {
		w.Objects = append(w.Objects, Object{ID: ObjectID(k), Size: units.ByteSize(1 + k%7)})
		w.Pages[0].Compulsory = append(w.Pages[0].Compulsory, ObjectID(k))
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	visit := w.PartitionOrder().Page(0)
	if len(visit) != 1<<PageRefBits {
		t.Fatalf("%d entries, want %d", len(visit), 1<<PageRefBits)
	}
	for v := 1; v < len(visit); v++ {
		a, b := int(visit[v-1]), int(visit[v])
		if sa, sb := w.ObjectSize(ObjectID(a)), w.ObjectSize(ObjectID(b)); sa < sb || sa == sb && a >= b {
			t.Fatalf("entry %d: idx %d (size %d) before idx %d (size %d)", v, a, sa, b, sb)
		}
	}
	if last := int(visit[len(visit)-1]); last != 1<<PageRefBits-1-(1<<PageRefBits-1)%7 {
		t.Errorf("last entry idx %d, want the last object of size 1", last)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := MustGenerate(SmallConfig(), 5)
	var buf bytes.Buffer
	if err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.Encode(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := w.Encode(&buf1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("JSON round trip not identity")
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode(strings.NewReader("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Structurally valid JSON but semantically broken workload.
	if _, err := Decode(strings.NewReader(`{"objects":[{"id":5,"size":10}],"pages":[],"sites":[]}`)); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	w := MustGenerate(SmallConfig(), 8)
	path := t.TempDir() + "/w.json"
	if err := w.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPages() != w.NumPages() || got.Seed != w.Seed {
		t.Error("loaded workload differs")
	}
	if _, err := LoadFile(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file should error")
	}
}

// TestSaveFileReportsFullDevice saves to a device that accepts the open and
// fails every write. The workload is small enough to sit in the write
// buffer until the final flush, so only the flush can report the failure.
func TestSaveFileReportsFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if err := (&Workload{Seed: 1}).SaveFile("/dev/full"); err == nil {
		t.Fatal("SaveFile to a full device returned nil")
	}
}

func TestSummaryWrite(t *testing.T) {
	w := MustGenerate(SmallConfig(), 9)
	s := Summarize(w)
	var sb strings.Builder
	if err := s.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Local sites", "Hot pages", "storage per site"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestLinkProbsMatchConfig(t *testing.T) {
	w := MustGenerate(SmallConfig(), 10)
	want := w.Config.LinkProb()
	for j := range w.Pages {
		for _, l := range w.Pages[j].Optional {
			if l.Prob != want {
				t.Fatalf("page %d link prob %v, want %v", j, l.Prob, want)
			}
		}
	}
}

func TestZipfPopularity(t *testing.T) {
	cfg := SmallConfig()
	cfg.Popularity = PopularityZipf
	cfg.ZipfS = 0.8
	w := MustGenerate(cfg, 99)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per-site rates still sum to the configured aggregate.
	for i := range w.Sites {
		sum := 0.0
		for _, pid := range w.Sites[i].Pages {
			sum += float64(w.Pages[pid].Freq)
		}
		if math.Abs(sum-float64(cfg.PageRatePerSite)) > 1e-9 {
			t.Errorf("site %d rate %v", i, sum)
		}
	}
	// Heavy tail: the top 10%% of pages carry well above 10%% of traffic
	// but a different share than the two-class model's fixed 60%%.
	share := trafficShare(w, 0, 0.10)
	if share < 0.2 || share > 0.95 {
		t.Errorf("zipf top-10%% share = %v", share)
	}
	// Hot flags mark the highest-frequency pages.
	for _, pid := range w.Sites[0].Pages {
		if w.Pages[pid].Hot {
			for _, qid := range w.Sites[0].Pages {
				if !w.Pages[qid].Hot && w.Pages[qid].Freq > w.Pages[pid].Freq {
					t.Fatalf("cold page %d hotter than hot page %d", qid, pid)
				}
			}
		}
	}
}

func TestZipfValidation(t *testing.T) {
	cfg := SmallConfig()
	cfg.Popularity = PopularityZipf
	if err := cfg.Validate(); err == nil {
		t.Error("zipf without exponent accepted")
	}
	cfg.Popularity = "pareto"
	cfg.ZipfS = 1
	if err := cfg.Validate(); err == nil {
		t.Error("unknown popularity model accepted")
	}
}

func TestMirrorHotPages(t *testing.T) {
	cfg := SmallConfig()
	cfg.MirrorHotPages = 2
	w := MustGenerate(cfg, 121)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	base := MustGenerate(SmallConfig(), 121)
	if w.NumPages() <= base.NumPages() {
		t.Fatalf("mirroring added no pages: %d vs %d", w.NumPages(), base.NumPages())
	}
	// Total request rate is preserved (copies split the original's rate).
	var total, baseTotal float64
	for j := range w.Pages {
		total += float64(w.Pages[j].Freq)
	}
	for j := range base.Pages {
		baseTotal += float64(base.Pages[j].Freq)
	}
	if math.Abs(total-baseTotal) > 1e-6 {
		t.Errorf("total rate changed: %v vs %v", total, baseTotal)
	}
	// Copies are on different sites than the originals they mirror, and
	// reference the same content; every copy's objects are in its site's
	// pool (Validate checks referenced objects exist globally; pool
	// membership matters for the planner's reverse indexes).
	for j := base.NumPages(); j < w.NumPages(); j++ {
		cp := &w.Pages[j]
		if !cp.Hot {
			t.Fatalf("copy %d not hot", j)
		}
		pool := map[ObjectID]bool{}
		for _, k := range w.Sites[cp.Site].Objects {
			pool[k] = true
		}
		for _, k := range cp.Compulsory {
			if !pool[k] {
				t.Fatalf("copy %d references object %d outside site %d pool", j, k, cp.Site)
			}
		}
	}
}
