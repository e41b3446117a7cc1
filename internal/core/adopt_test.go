package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// replayAdopt is the reference adoption: p's stores replayed through store,
// then one flip to local per local mark, in page order, compulsory before
// optional.
func replayAdopt(pl *Planner, p *model.Placement) {
	w := pl.env.W
	for i := range workload.SiteID(w.NumSites()) {
		p.StoredSet(i).ForEach(func(k int) bool {
			pl.store(i, workload.ObjectID(k))
			return true
		})
	}
	for j := range w.Pages {
		pid := workload.PageID(j)
		for idx := range w.Pages[j].Compulsory {
			if p.CompLocal(pid, idx) {
				pl.flipComp(pid, idx, true)
			}
		}
		for idx := range w.Pages[j].Optional {
			if p.OptLocal(pid, idx) {
				pl.flipOpt(pid, idx, true)
			}
		}
	}
}

// rehomed clones w with site dead's pages dealt round-robin to the other
// sites, page lists rebuilt in page-ID order — the shape of a repair's
// re-homed workload.
func rehomed(w *workload.Workload, dead workload.SiteID) *workload.Workload {
	c := w.Derive()
	next := workload.SiteID(0)
	for j := range c.Pages {
		if c.Pages[j].Site != dead {
			continue
		}
		if next == dead {
			next = (next + 1) % workload.SiteID(w.NumSites())
		}
		c.Pages[j].Site = next
		next = (next + 1) % workload.SiteID(w.NumSites())
	}
	for i := range c.Sites {
		c.Sites[i].Pages = nil
	}
	for j := range c.Pages {
		s := c.Pages[j].Site
		c.Sites[s].Pages = append(c.Sites[s].Pages, workload.PageID(j))
	}
	return c
}

// survivorSeed is p over w2 less site dead: the survivors' stores, and
// every mark but those of the pages p's workload hosts on dead.
func survivorSeed(w2 *workload.Workload, p *model.Placement, dead workload.SiteID) *model.Placement {
	seed := model.NewPlacement(w2)
	for i := range workload.SiteID(w2.NumSites()) {
		if i != dead {
			seed.CopyStore(i, p)
		}
	}
	for j, pg := range p.Workload().Pages {
		if pg.Site == dead {
			continue
		}
		pid := workload.PageID(j)
		for idx := range pg.Compulsory {
			seed.SetCompLocal(pid, idx, p.CompLocal(pid, idx))
		}
		for idx := range pg.Optional {
			seed.SetOptLocal(pid, idx, p.OptLocal(pid, idx))
		}
	}
	return seed
}

// withIdleStores returns p plus, at every site, a random third of the
// objects its pages reference stored without a local mark.
func withIdleStores(p *model.Placement, s *rng.Stream) *model.Placement {
	q := p.Clone()
	w := p.Workload()
	for j := range w.Pages {
		pg := &w.Pages[j]
		for _, k := range pg.Compulsory {
			if s.Bool(1.0 / 3) {
				q.Store(pg.Site, k)
			}
		}
		for _, l := range pg.Optional {
			if s.Bool(1.0 / 3) {
				q.Store(pg.Site, l.Object)
			}
		}
	}
	return q
}

// samePlanner fails unless every incremental cell of got is what want
// holds, floats by bit pattern.
func samePlanner(t *testing.T, what string, got, want *Planner) {
	t.Helper()
	floats := func(name string, a, b []float64) {
		t.Helper()
		for i := range b {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, replay %v", what, name, i, a[i], b[i])
			}
		}
	}
	seconds := func(v []units.Seconds) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = float64(x)
		}
		return out
	}
	floats("pageT", seconds(got.pageT), seconds(want.pageT))
	floats("d1Site", got.d1Site, want.d1Site)
	floats("d2Site", got.d2Site, want.d2Site)
	floats("siteLocalLoad", got.siteLocalLoad, want.siteLocalLoad)
	floats("siteRepoLoad", got.siteRepoLoad, want.siteRepoLoad)
	switch {
	case !slices.Equal(got.localBytes, want.localBytes):
		t.Fatalf("%s: localBytes differ from the replay's", what)
	case !slices.Equal(got.remoteBytes, want.remoteBytes):
		t.Fatalf("%s: remoteBytes differ from the replay's", what)
	case !slices.Equal(got.localMarks, want.localMarks):
		t.Fatalf("%s: localMarks differ from the replay's", what)
	case !slices.Equal(got.idle, want.idle):
		t.Fatalf("%s: stored-but-remote index differs from the replay's", what)
	case !got.p.Equal(want.p):
		t.Fatalf("%s: placement differs from the replay's", what)
	}
	for i := range workload.SiteID(got.env.W.NumSites()) {
		if g, w := got.p.StoredMOBytes(i), want.p.StoredMOBytes(i); g != w {
			t.Fatalf("%s: site %d stores %d MO bytes, replay %d", what, i, g, w)
		}
	}
	if err := got.VerifyConsistency(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestAdoptMatchesReplay holds the one-pass AdoptPlacement to the replay it
// replaced, cell for cell and bit for bit: plain adoptions of planned and
// random placements with idle replicas, and repair-style adoptions that
// drop a dead site's stores and re-home its pages all-remote.
func TestAdoptMatchesReplay(t *testing.T) {
	for _, seed := range []uint64{45, 46} {
		env := genEnv(t, seed)
		w := env.W
		s := rng.New(seed)
		planned, _, err := Plan(env, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		tight := *env
		tight.Budgets = model.FullBudgets(w).Scale(w, 0.3, 1)
		squeezed, _, err := Plan(&tight, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			p    *model.Placement
		}{{"planned", planned}, {"tight", squeezed}, {"idle replica", withIdleStores(planned, s)}} {
			got, want := NewPlanner(env), NewPlanner(env)
			if err := got.AdoptPlacement(c.p); err != nil {
				t.Fatal(err)
			}
			replayAdopt(want, c.p)
			samePlanner(t, c.name, got, want)

			for dead := range workload.SiteID(w.NumSites()) {
				w2 := rehomed(w, dead)
				env2, err := model.NewEnv(w2, env.Est, env.Budgets)
				if err != nil {
					t.Fatal(err)
				}
				got, want := NewPlanner(env2), NewPlanner(env2)
				if err := got.AdoptPlacement(c.p, dead); err != nil {
					t.Fatal(err)
				}
				replayAdopt(want, survivorSeed(w2, c.p, dead))
				samePlanner(t, c.name+" less a dead site", got, want)
			}
		}
	}
}

// TestAdoptPlacementRejects covers the shape and move checks and a
// placement whose marks dangle.
func TestAdoptPlacementRejects(t *testing.T) {
	env := genEnv(t, 45)
	p, _, err := Plan(env, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	other := genEnv(t, 46)
	if err := NewPlanner(other).AdoptPlacement(p); err == nil {
		t.Error("adopted a placement over another workload")
	}
	w2 := rehomed(env.W, 0)
	env2, err := model.NewEnv(w2, env.Est, env.Budgets)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewPlanner(env2).AdoptPlacement(p, 1); err == nil {
		t.Error("adopted marks of pages that moved off a live site")
	}
	dangling := p.Clone()
	for j, pg := range env.W.Pages {
		if len(pg.Compulsory) > 0 {
			dangling.SetCompLocal(workload.PageID(j), 0, true)
			dangling.Unstore(pg.Site, pg.Compulsory[0])
			break
		}
	}
	if err := NewPlanner(env).AdoptPlacement(dangling); err == nil {
		t.Error("adopted a placement with a dangling mark")
	}
}
