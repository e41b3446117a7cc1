package htmlrefs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// PageEntry is the reference database's record for one page: the stored
// document, its parsed references (sorted by position), and the per-
// reference local/remote decision. The paper's Section 2 prescribes exactly
// this: "the above information is included in a reference database together
// with the position of the URLs in the HTML document".
type PageEntry struct {
	Doc   []byte
	Refs  []Ref
	Local []bool // parallel to Refs: serve from the local server?
	// Weight is each reference's access weight (parallel to Refs):
	// compulsory objects are always needed (weight 1), optional ones carry
	// the workload's per-link access probability — the paper's per-object
	// access weights, which brownout uses to drop the least-valuable
	// content first.
	Weight []float64
	// optMedian is the median optional-reference weight, the tier-1
	// brownout threshold (0 when the page has no optional references).
	optMedian float64
	// site and htmlSize are the page fields Doc was rendered from besides
	// its references, which Refs and Weight record: together they tell
	// Rebuild whether the page has changed since.
	site     workload.SiteID
	htmlSize units.ByteSize
}

// RefDB is one local server's reference database. It is built by parsing
// each hosted page (at "page creation/update" time). A new replication
// plan only flips references between local and remote, so a rebuild
// re-decides the pages it already holds and renders and parses only the
// pages that are new to the site or have changed. Lookups at serving time
// are read-only and safe for concurrent use with rebuilds, which swap the
// entry map under an RWMutex and never modify a published entry (plans
// change rarely, pages are served constantly).
type RefDB struct {
	mu       sync.RWMutex
	site     workload.SiteID
	repoBase string // the base the entries' documents were rendered against
	entries  map[workload.PageID]*PageEntry
}

// BuildRefDB parses every page hosted at site i (rendered against
// repoBase) and applies the placement's decisions: an empty database for
// the site, then Rebuild.
func BuildRefDB(w *workload.Workload, i workload.SiteID, p *model.Placement, repoBase string) (*RefDB, error) {
	db := &RefDB{site: i}
	if err := db.Rebuild(w, p, repoBase); err != nil {
		return nil, err
	}
	return db, nil
}

// validateRefs checks that parsing recovered exactly the page's references.
func validateRefs(w *workload.Workload, pid workload.PageID, refs []Ref) error {
	pg := &w.Pages[pid]
	comp := map[workload.ObjectID]bool{}
	opt := map[workload.ObjectID]bool{}
	for _, r := range refs {
		if r.Optional {
			opt[r.Object] = true
		} else {
			comp[r.Object] = true
		}
	}
	if len(comp) != len(pg.Compulsory) || len(opt) != len(pg.Optional) {
		return fmt.Errorf("htmlrefs: page %d parsed %d/%d refs, workload has %d/%d",
			pid, len(comp), len(opt), len(pg.Compulsory), len(pg.Optional))
	}
	for _, k := range pg.Compulsory {
		if !comp[k] {
			return fmt.Errorf("htmlrefs: page %d compulsory object %d not recovered", pid, k)
		}
	}
	for _, l := range pg.Optional {
		if !opt[l.Object] {
			return fmt.Errorf("htmlrefs: page %d optional object %d not recovered", pid, l.Object)
		}
	}
	return nil
}

// applyEntry sets one entry's local/remote decisions from the placement.
func applyEntry(w *workload.Workload, pid workload.PageID, entry *PageEntry, p *model.Placement) error {
	pg := &w.Pages[pid]
	compIdx := make(map[workload.ObjectID]int, len(pg.Compulsory))
	for idx, k := range pg.Compulsory {
		compIdx[k] = idx
	}
	optIdx := make(map[workload.ObjectID]int, len(pg.Optional))
	for idx, l := range pg.Optional {
		optIdx[l.Object] = idx
	}
	for ri, r := range entry.Refs {
		if r.Optional {
			idx, ok := optIdx[r.Object]
			if !ok {
				return fmt.Errorf("htmlrefs: page %d references unknown optional object %d", pid, r.Object)
			}
			entry.Local[ri] = p.OptLocal(pid, idx)
		} else {
			idx, ok := compIdx[r.Object]
			if !ok {
				return fmt.Errorf("htmlrefs: page %d references unknown compulsory object %d", pid, r.Object)
			}
			entry.Local[ri] = p.CompLocal(pid, idx)
		}
	}
	return nil
}

// Rebuild replaces the database wholesale for a (possibly re-homed)
// workload: every page in the site's page list under w gets a fresh entry
// carrying the placement's decisions, and the entry map is swapped in
// atomically with respect to Serve readers. This is how a live server
// adopts a repair plan that moves pages onto or off it — no restart; a
// concurrent reader sees either the old database or the new one, never a
// mix. A page the database already holds, rendered against the same
// repoBase from the same host, HTML size and references, keeps its
// document, references and weights; a page that is new or has changed is
// rendered, parsed and validated. w must index objects identically to the
// construction workload (repair's re-homed clones do).
func (db *RefDB) Rebuild(w *workload.Workload, p *model.Placement, repoBase string) error {
	db.mu.RLock()
	old := db.entries
	if db.repoBase != repoBase {
		old = nil
	}
	db.mu.RUnlock()
	entries := make(map[workload.PageID]*PageEntry, len(w.Sites[db.site].Pages))
	for _, pid := range w.Sites[db.site].Pages {
		pg := &w.Pages[pid]
		var entry *PageEntry
		if prev, ok := old[pid]; ok && prev.renders(pg) {
			kept := *prev
			entry = &kept
		} else {
			doc := RenderPage(w, pid, repoBase)
			refs := ParseRefs(doc)
			sort.Slice(refs, func(a, b int) bool { return refs[a].Start < refs[b].Start })
			if err := validateRefs(w, pid, refs); err != nil {
				return err
			}
			entry = &PageEntry{Doc: doc, Refs: refs, site: pg.Site, htmlSize: pg.HTMLSize}
			setWeights(w, pid, entry)
		}
		entry.Local = make([]bool, len(entry.Refs))
		if err := applyEntry(w, pid, entry, p); err != nil {
			return err
		}
		entries[pid] = entry
	}
	db.mu.Lock()
	db.entries = entries
	db.repoBase = repoBase
	db.mu.Unlock()
	return nil
}

// renders reports whether the entry's document is the one RenderPage
// makes for page pg, given the same page ID and repoBase: same host, same
// HTML size, and references that list pg's compulsory objects and then
// its optional links in order (the order RenderPage writes them), each
// optional one weighted by the link's access probability.
func (e *PageEntry) renders(pg *workload.Page) bool {
	nc := len(pg.Compulsory)
	if e.site != pg.Site || e.htmlSize != pg.HTMLSize || len(e.Refs) != nc+len(pg.Optional) {
		return false
	}
	for idx, k := range pg.Compulsory {
		if r := e.Refs[idx]; r.Optional || r.Object != k {
			return false
		}
	}
	for idx, l := range pg.Optional {
		r := e.Refs[nc+idx]
		if !r.Optional || r.Object != l.Object || math.Float64bits(e.Weight[nc+idx]) != math.Float64bits(l.Prob) {
			return false
		}
	}
	return true
}

// setWeights fills the entry's per-reference access weights from the
// workload: 1 for compulsory references, the link's access probability for
// optional ones, and the optional median that thresholds tier-1 brownout.
func setWeights(w *workload.Workload, pid workload.PageID, entry *PageEntry) {
	pg := &w.Pages[pid]
	prob := make(map[workload.ObjectID]float64, len(pg.Optional))
	for _, l := range pg.Optional {
		prob[l.Object] = l.Prob
	}
	entry.Weight = make([]float64, len(entry.Refs))
	var opt []float64
	for ri, r := range entry.Refs {
		if r.Optional {
			entry.Weight[ri] = prob[r.Object]
			opt = append(opt, prob[r.Object])
		} else {
			entry.Weight[ri] = 1
		}
	}
	entry.optMedian = 0
	if len(opt) > 0 {
		sort.Float64s(opt)
		entry.optMedian = opt[len(opt)/2]
	}
}

// Serve produces the document for page pid as sent to a client: stored
// bytes with every locally-assigned reference rewritten from the repository
// base URL to localBase — the paper's on-the-fly replacement. ok is false
// for pages this server does not host.
func (db *RefDB) Serve(pid workload.PageID, localBase string) ([]byte, bool) {
	doc, _, ok := db.ServeTier(pid, localBase, 0)
	return doc, ok
}

// ServeTier is Serve under a brownout tier: tier 0 is full fidelity; at
// tier 1 the optional references whose access weight falls below the
// page's optional median are dropped (lowest-weight MOs first — the
// paper's per-object access weights ordering the sacrifice); at tier 2 and
// above every optional reference is dropped. Compulsory references always
// survive — a browned-out page still renders. A dropped reference's URL is
// rewritten to "#", so clients neither follow nor count it. dropped
// reports how many references were removed.
func (db *RefDB) ServeTier(pid workload.PageID, localBase string, tier int) (doc []byte, dropped int, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	entry, ok := db.entries[pid]
	if !ok {
		return nil, 0, false
	}
	var out bytes.Buffer
	out.Grow(len(entry.Doc) + 64)
	prev := 0
	for ri, r := range entry.Refs {
		if r.Optional && tier > 0 &&
			(tier >= 2 || entry.Weight[ri] < entry.optMedian) {
			out.Write(entry.Doc[prev:r.Start])
			out.WriteString("#")
			prev = r.End
			dropped++
			continue
		}
		if !entry.Local[ri] {
			continue
		}
		out.Write(entry.Doc[prev:r.Start])
		out.WriteString(localBase)
		out.WriteString(MOPath(r.Object))
		prev = r.End
	}
	out.Write(entry.Doc[prev:])
	return out.Bytes(), dropped, true
}
