package htmlrefs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// serveAll renders what db serves for every page of w at tiers 0, 1 and
// 2, one string per (page, tier): hosted or not, references dropped, body.
func serveAll(db *RefDB, w *workload.Workload) []string {
	var out []string
	for j := range w.Pages {
		for tier := 0; tier <= 2; tier++ {
			doc, dropped, ok := db.ServeTier(workload.PageID(j), "http://local.example", tier)
			out = append(out, fmt.Sprintf("W%d tier %d: ok=%v dropped=%d %s", j, tier, ok, dropped, doc))
		}
	}
	return out
}

// TestRebuildMatchesFreshBuild applies a sequence of plans to one database
// per site. After each, every page serves at tiers 0-2 exactly what a
// database built fresh for the same (w, p) serves, and the entries the
// rebuild replaced still serve what they did before it. The sequence: a
// plan flip (only decisions change), a repair (pages move between sites),
// its recovery (they move back), an in-place update of two pages' content,
// and a new repository base.
func TestRebuildMatchesFreshBuild(t *testing.T) {
	w := testWorkload(t)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w).Scale(w, 0.5, 1))
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := core.Plan(env, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := repair.Compute(env, p, []workload.SiteID{0}, repair.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The update grows one page's HTML and spreads out another's equal
	// optional link probabilities, which gives tier-1 brownout links to drop.
	updated := w.Derive()
	updated.Pages[w.Sites[1].Pages[0]].HTMLSize += 4 * units.KB
	spread := false
	for _, pid := range w.Sites[1].Pages[1:] {
		pg := &updated.Pages[pid]
		if len(pg.Optional) >= 2 && pg.Optional[0].Prob == pg.Optional[1].Prob {
			pg.Optional = append([]workload.OptionalLink(nil), pg.Optional...)
			for i := range pg.Optional {
				pg.Optional[i].Prob = float64(i+1) / float64(len(pg.Optional)+1)
			}
			spread = true
			break
		}
	}
	if !spread {
		t.Fatal("no page on site 1 has two optional links of equal probability")
	}

	const repoBase = "http://repo.example"
	steps := []struct {
		name     string
		w        *workload.Workload
		p        *model.Placement
		repoBase string
	}{
		{"plan flip", w, p, repoBase},
		{"repair", rp.Env.W, rp.Placement, repoBase},
		{"recovery", w, p, repoBase},
		{"page update", updated, p, repoBase},
		{"new repository base", updated, p, "http://mirror.example"},
	}
	for i := 0; i < w.NumSites(); i++ {
		site := workload.SiteID(i)
		db, err := BuildRefDB(w, site, model.AllRemote(w), repoBase)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range steps {
			replaced := &RefDB{site: site, entries: db.entries}
			before := serveAll(replaced, w)
			if err := db.Rebuild(step.w, step.p, step.repoBase); err != nil {
				t.Fatalf("site %d, %s: %v", i, step.name, err)
			}
			if !reflect.DeepEqual(serveAll(replaced, w), before) {
				t.Fatalf("site %d, %s: the rebuild changed what the replaced entries serve", i, step.name)
			}
			fresh, err := BuildRefDB(step.w, site, step.p, step.repoBase)
			if err != nil {
				t.Fatal(err)
			}
			got, want := serveAll(db, w), serveAll(fresh, w)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("site %d, %s: rebuilt database serves\n%.300s\nfresh build serves\n%.300s", i, step.name, got[k], want[k])
				}
			}
			if step.name != "repair" {
				continue
			}
			for _, r := range rp.Delta.Rehomed {
				if r.To != site {
					continue
				}
				doc, ok := db.Serve(r.Page, "http://local.example")
				if h1 := fmt.Sprintf("<h1>Page W%d (site S%d)</h1>", r.Page, site); !ok || !bytes.Contains(doc, []byte(h1)) {
					t.Fatalf("re-homed page %d on site %d does not render %q", r.Page, site, h1)
				}
			}
		}
	}
}
