package workload

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/rng"
	"repro/internal/units"
)

// Sub-stream labels for hierarchical seeding. Keeping them as named
// constants makes regenerated workloads stable across refactors.
const (
	streamObjects uint64 = iota + 1
	streamSitePool
	streamPages
	streamFreqs
	streamMirrors
)

// Generate builds a workload from the configuration and seed. Identical
// (config, seed) pairs yield byte-identical workloads.
func Generate(cfg Config, seed uint64) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	w := &Workload{Config: cfg, Seed: seed}

	// Global object population: 15,000 MOs with Table-1 size classes.
	moSizes, err := cfg.moSampler()
	if err != nil {
		return nil, err
	}
	objStream := root.Split(streamObjects)
	w.Objects = make([]Object, cfg.GlobalObjects)
	for k := range w.Objects {
		w.Objects[k] = Object{ID: ObjectID(k), Size: units.ByteSize(moSizes.Draw(objStream))}
	}

	htmlSizes, err := cfg.htmlSampler()
	if err != nil {
		return nil, err
	}

	w.Sites = make([]Site, cfg.Sites)
	for i := range w.Sites {
		if err := generateSite(w, SiteID(i), root, htmlSizes); err != nil {
			return nil, err
		}
	}
	if cfg.MirrorHotPages > 0 {
		mirrorHotPages(w, root.Split(streamMirrors))
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generator produced invalid workload: %w", err)
	}
	return w, nil
}

// mirrorHotPages replicates every hot page onto MirrorHotPages additional
// sites (Section 3 treats each copy as a distinct page). Copies reference
// the same objects — which may lie outside the target site's own sampled
// pool, so the pool is extended — and the original's traffic is split
// evenly across all copies, preserving the global request rate.
func mirrorHotPages(w *Workload, s *rng.Stream) {
	if w.NumSites() < 2 {
		return
	}
	extra := w.Config.MirrorHotPages
	if extra > w.NumSites()-1 {
		extra = w.NumSites() - 1
	}

	pools := make([]*bitset.Set, w.NumSites())
	for i := range pools {
		pools[i] = bitset.New(w.NumObjects())
		for _, k := range w.Sites[i].Objects {
			pools[i].Set(int(k))
		}
	}
	// extend adds object k to site's pool unless it is already there.
	extend := func(site SiteID, k ObjectID) {
		if !pools[site].Test(int(k)) {
			pools[site].Set(int(k))
			w.Sites[site].Objects = append(w.Sites[site].Objects, k)
		}
	}

	originals := len(w.Pages)
	for j := 0; j < originals; j++ {
		// Value copy: the appends below may reallocate w.Pages, which
		// would dangle a pointer. The slices inside are shared, immutable
		// content.
		src := w.Pages[j]
		if !src.Hot {
			continue
		}
		// Choose the target sites: a random sample of the other sites.
		var others []int
		for i := 0; i < w.NumSites(); i++ {
			if SiteID(i) != src.Site {
				others = append(others, i)
			}
		}
		targetsIdx := s.SampleWithoutReplacement(len(others), extra)

		splitFreq := units.ReqPerSec(float64(src.Freq) / float64(extra+1))
		w.Pages[j].Freq = splitFreq
		for _, ti := range targetsIdx {
			site := SiteID(others[ti])
			copyID := PageID(len(w.Pages))
			cp := Page{
				ID:       copyID,
				Site:     site,
				HTMLSize: src.HTMLSize,
				Freq:     splitFreq,
				Hot:      true,
				// Share the reference slices: content is immutable.
				Compulsory: src.Compulsory,
				Optional:   src.Optional,
			}
			for _, k := range src.Compulsory {
				extend(site, k)
			}
			for _, l := range src.Optional {
				extend(site, l.Object)
			}
			w.Sites[site].Pages = append(w.Sites[site].Pages, copyID)
			w.Pages = append(w.Pages, cp)
		}
	}
}

// generateSite populates site i: its object pool, its pages (HTML sizes,
// compulsory/optional object references) and its page frequencies.
func generateSite(w *Workload, i SiteID, root *rng.Stream, htmlSizes *rng.ClassedSampler) error {
	cfg := &w.Config
	poolStream := root.Split(streamSitePool, uint64(i))
	pageStream := root.Split(streamPages, uint64(i))
	freqStream := root.Split(streamFreqs, uint64(i))

	site := Site{ID: i, Capacity: cfg.SiteCapacity}

	// Object pool: a uniform sample of the global population (Table 1:
	// 1,500-4,500 MOs per local site).
	poolSize := poolStream.IntRange(cfg.ObjectsPerSite, cfg.ObjectsPerMax)
	pool := poolStream.SampleWithoutReplacement(cfg.GlobalObjects, poolSize)
	site.Objects = make([]ObjectID, len(pool))
	for idx, v := range pool {
		site.Objects[idx] = ObjectID(v)
	}

	nPages := pageStream.IntRange(cfg.PagesPerSiteMin, cfg.PagesPerSiteMax)

	// Frequency weights per mixture index, under the configured popularity
	// model; hotCount marks the leading indices flagged Hot.
	weights, hotCount, err := popularityWeights(cfg, nPages)
	if err != nil {
		return err
	}
	// Randomize which pages are hot: position r in the random permutation
	// maps to mixture index r, so the hot set is a random subset.
	perm := freqStream.Perm(nPages)

	// Compulsory lists are carved from per-site slabs of about a quarter of
	// the site's expected total. Each list is capped at its own length
	// (slab[a:b:b]), so an append to one page's list copies it rather than
	// writing into the next page's.
	slabIDs := nPages * (cfg.CompulsoryMin + cfg.CompulsoryMax) / 8
	var slab []ObjectID

	site.Pages = make([]PageID, 0, nPages)
	linkProb := cfg.LinkProb()
	for r := 0; r < nPages; r++ {
		pid := PageID(len(w.Pages))
		p := Page{
			ID:       pid,
			Site:     i,
			HTMLSize: units.ByteSize(htmlSizes.Draw(pageStream)),
		}

		nComp := pageStream.IntRange(cfg.CompulsoryMin, cfg.CompulsoryMax)
		nOpt := 0
		if pageStream.Bool(cfg.OptionalPageFrac) {
			nOpt = pageStream.IntRange(cfg.OptionalMin, cfg.OptionalMax)
		}
		// One disjoint sample from the pool, split into compulsory and
		// optional (an object cannot be both: U'_jk = 0 when U_jk = 1).
		refs := pageStream.SampleWithoutReplacement(len(site.Objects), nComp+nOpt)
		if cap(slab)-len(slab) < nComp {
			slab = make([]ObjectID, 0, max(nComp, slabIDs))
		}
		a := len(slab)
		for _, ref := range refs[:nComp] {
			slab = append(slab, site.Objects[ref])
		}
		p.Compulsory = slab[a:len(slab):len(slab)]
		if nOpt > 0 {
			p.Optional = make([]OptionalLink, nOpt)
			for idx := 0; idx < nOpt; idx++ {
				p.Optional[idx] = OptionalLink{Object: site.Objects[refs[nComp+idx]], Prob: linkProb}
			}
		}

		mixIdx := perm[r]
		p.Hot = mixIdx < hotCount
		p.Freq = units.ReqPerSec(float64(cfg.PageRatePerSite) * weights[mixIdx])

		site.Pages = append(site.Pages, pid)
		w.Pages = append(w.Pages, p)
	}

	w.Sites[i] = site
	return nil
}

// popularityWeights returns the normalized per-index frequency weights and
// the count of leading indices flagged Hot, under the configured model.
func popularityWeights(cfg *Config, n int) ([]float64, int, error) {
	weights := make([]float64, n)
	switch cfg.Popularity {
	case "", PopularityHotCold:
		hc, err := rng.NewHotCold(n, cfg.HotPageFrac, cfg.HotTrafficShare)
		if err != nil {
			return nil, 0, err
		}
		for i := range weights {
			weights[i] = hc.Weight(i)
		}
		return weights, hc.HotCount(), nil
	case PopularityZipf:
		sum := 0.0
		for i := range weights {
			weights[i] = 1 / math.Pow(float64(i+1), cfg.ZipfS)
			sum += weights[i]
		}
		for i := range weights {
			weights[i] /= sum
		}
		hot := int(float64(n)*cfg.HotPageFrac + 0.5)
		if hot < 1 {
			hot = 1
		}
		return weights, hot, nil
	}
	return nil, 0, fmt.Errorf("workload: unknown popularity model %q", cfg.Popularity)
}

// MustGenerate is Generate that panics on error, for tests and examples
// using known-valid configurations.
func MustGenerate(cfg Config, seed uint64) *Workload {
	w, err := Generate(cfg, seed)
	if err != nil {
		panic(err)
	}
	return w
}
