package model

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// tinyEnv builds a hand-checkable environment: one site, one page with two
// compulsory objects (100 KB, 50 KB) and one optional link (20 KB, p=0.03),
// HTML 10 KB, f = 1 req/s, B(S)=10 KB/s, B(R,S)=1 KB/s, Ovhd(S)=1 s,
// Ovhd(R,S)=2 s.
func tinyEnv(t *testing.T) (*Env, *workload.Workload) {
	t.Helper()
	w := &workload.Workload{
		Config: workload.Config{Alpha1: 2, Alpha2: 1},
		Objects: []workload.Object{
			{ID: 0, Size: 100 * units.KB},
			{ID: 1, Size: 50 * units.KB},
			{ID: 2, Size: 20 * units.KB},
		},
		Pages: []workload.Page{{
			ID: 0, Site: 0, HTMLSize: 10 * units.KB, Freq: 1,
			Compulsory: []workload.ObjectID{0, 1},
			Optional:   []workload.OptionalLink{{Object: 2, Prob: 0.03}},
		}},
		Sites: []workload.Site{{
			ID: 0, Pages: []workload.PageID{0},
			Objects:  []workload.ObjectID{0, 1, 2},
			Capacity: 150,
		}},
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	est := &netsim.Estimates{Sites: []netsim.SiteEstimate{{
		LocalRate: 10 * units.KBPerSec,
		RepoRate:  1 * units.KBPerSec,
		LocalOvhd: 1,
		RepoOvhd:  2,
	}}}
	env, err := NewEnv(w, est, FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	return env, w
}

func almost(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestPageTimesAllRemote(t *testing.T) {
	env, w := tinyEnv(t)
	p := AllRemote(w)
	almost(t, "local", float64(PageLocalTime(env, p, 0)), 2)     // 1 + 10/10
	almost(t, "remote", float64(PageRemoteTime(env, p, 0)), 152) // 2 + 150/1
	almost(t, "page", float64(PageTime(env, p, 0)), 152)
	almost(t, "optional", float64(PageOptionalTime(env, p, 0)), 0.03*(2+20))
}

func TestPageTimesAllLocal(t *testing.T) {
	env, w := tinyEnv(t)
	p := AllLocal(w)
	almost(t, "local", float64(PageLocalTime(env, p, 0)), 17) // 1 + 160/10
	almost(t, "remote", float64(PageRemoteTime(env, p, 0)), 0)
	almost(t, "page", float64(PageTime(env, p, 0)), 17)
	almost(t, "optional", float64(PageOptionalTime(env, p, 0)), 0.03*(1+2))
}

func TestPageTimesMixed(t *testing.T) {
	env, w := tinyEnv(t)
	p := NewPlacement(w)
	p.Store(0, 0)
	p.SetCompLocal(0, 0, true)                                  // 100 KB local, 50 KB remote
	almost(t, "local", float64(PageLocalTime(env, p, 0)), 12)   // 1 + 110/10
	almost(t, "remote", float64(PageRemoteTime(env, p, 0)), 52) // 2 + 50/1
	almost(t, "page", float64(PageTime(env, p, 0)), 52)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPredictSpans: one predict span per page carrying PageTime and the
// side that takes the max, at the deterministic identity the doc gives.
func TestPredictSpans(t *testing.T) {
	env, w := tinyEnv(t)
	for _, tc := range []struct {
		p     *Placement
		d     float64
		chain string
	}{{AllRemote(w), 152, "remote"}, {AllLocal(w), 17, "local"}} {
		spans := PredictSpans(env, tc.p)
		if len(spans) != 1 {
			t.Fatalf("%d spans for 1 page", len(spans))
		}
		s := spans[0]
		if s.Trace != 0 || s.ID != 1 || s.Name != trace.SpanPredict || s.Attr(trace.AttrPage) != "0" || s.Attr(trace.AttrChain) != tc.chain {
			t.Errorf("span %+v, want trace 0, ID 1, %s page 0 chain %s", s, trace.SpanPredict, tc.chain)
		}
		almost(t, "predicted "+tc.chain, s.Dur, tc.d)
	}
}

func TestObjectives(t *testing.T) {
	env, w := tinyEnv(t)
	p := AllLocal(w)
	almost(t, "D1", D1(env, p), 17)
	almost(t, "D2", D2(env, p), 0.09)
	almost(t, "D", D(env, p), 2*17+0.09)

	r := AllRemote(w)
	if D(env, r) <= D(env, p) {
		t.Error("with a slow repository, all-remote should have higher D than all-local")
	}
}

func TestLoads(t *testing.T) {
	env, w := tinyEnv(t)
	local := AllLocal(w)
	almost(t, "site load (local)", float64(SiteLoad(env, local, 0)), 1+2+0.03)
	almost(t, "repo load (local)", float64(RepoLoad(env, local)), 0)

	remote := AllRemote(w)
	almost(t, "site load (remote)", float64(SiteLoad(env, remote, 0)), 1)
	almost(t, "repo load (remote)", float64(RepoLoad(env, remote)), 2+0.03)
	almost(t, "site repo load", float64(SiteRepoLoad(env, remote, 0)), 2.03)
}

func TestStorageAccounting(t *testing.T) {
	_, w := tinyEnv(t)
	p := NewPlacement(w)
	if p.StorageUsed(0) != 10*units.KB { // HTML only
		t.Errorf("empty placement storage = %v", p.StorageUsed(0))
	}
	p.Store(0, 0)
	p.Store(0, 0) // idempotent
	if p.StoredMOBytes(0) != 100*units.KB {
		t.Errorf("stored bytes = %v", p.StoredMOBytes(0))
	}
	p.Unstore(0, 0)
	p.Unstore(0, 0)
	if p.StoredMOBytes(0) != 0 {
		t.Errorf("stored bytes after unstore = %v", p.StoredMOBytes(0))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStorageUsedMatchesRecount is the property behind the O(1) Eq. 10
// check: after any run of Store/Unstore, on the placement, on a clone and on
// an Encode/DecodePlacement round trip of it, StorageUsed equals the pure
// recount — the site's HTML bytes plus the sizes of what it stores.
func TestStorageUsedMatchesRecount(t *testing.T) {
	prop := func(seed uint64) bool {
		w := workload.MustGenerate(workload.SmallConfig(), seed%64)
		check := func(name string, p *Placement) bool {
			for i := range w.Sites {
				id := workload.SiteID(i)
				want := w.HTMLStorageBytes(id)
				p.StoredSet(id).ForEach(func(k int) bool {
					want += w.ObjectSize(workload.ObjectID(k))
					return true
				})
				if got := p.StorageUsed(id); got != want {
					t.Logf("seed %d, %s: site %d StorageUsed = %d, recount %d", seed, name, i, got, want)
					return false
				}
			}
			return true
		}
		s := rng.New(seed)
		churn := func(p *Placement) {
			for step := 0; step < 300; step++ {
				i, k := workload.SiteID(s.IntN(w.NumSites())), workload.ObjectID(s.IntN(w.NumObjects()))
				if s.Bool(0.6) {
					p.Store(i, k)
				} else {
					p.Unstore(i, k)
				}
			}
		}
		p := NewPlacement(w)
		churn(p)
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			t.Log(err)
			return false
		}
		decoded, err := DecodePlacement(w, &buf)
		if err != nil {
			t.Log(err)
			return false
		}
		clone := decoded.Clone()
		churn(clone) // the clone's stored bytes are its own
		return check("placement", p) && check("decoded", decoded) && check("clone", clone) &&
			check("all-local", AllLocal(w))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCheckInvariantsCatchesDanglingMark(t *testing.T) {
	_, w := tinyEnv(t)
	p := NewPlacement(w)
	p.SetCompLocal(0, 0, true) // marked local but not stored
	if err := p.CheckInvariants(); err == nil {
		t.Error("dangling compulsory mark not caught")
	}
	p = NewPlacement(w)
	p.SetOptLocal(0, 0, true)
	if err := p.CheckInvariants(); err == nil {
		t.Error("dangling optional mark not caught")
	}
}

func TestClone(t *testing.T) {
	_, w := tinyEnv(t)
	p := AllLocal(w)
	c := p.Clone()
	c.SetCompLocal(0, 0, false)
	c.Unstore(0, 0)
	if !p.CompLocal(0, 0) || !p.IsStored(0, 0) {
		t.Error("mutating clone affected original")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := c.CheckInvariants(); err == nil {
		// c unstored object 0 but page 0 idx 1 still local & stored — fine;
		// idx 0 was unmarked first, so invariants must hold.
		_ = err
	} else {
		t.Errorf("clone invariants: %v", err)
	}
}

// TestCopyStore copies one site's store from a placement over another
// workload with the same objects: the bits and the byte count arrive, the
// other sites and the marks stay as they were, and the copy is its own.
func TestCopyStore(t *testing.T) {
	w := workload.MustGenerate(workload.SmallConfig(), 45)
	src := randomPlacement(w, rng.New(45), 0.5)
	dst := NewPlacement(shuffledSites(w, rng.New(46)))
	dst.CopyStore(1, src)
	n := dst.StoredSet(1).Count()
	if n == 0 || !dst.StoredSet(1).Equal(src.StoredSet(1)) || dst.StoredMOBytes(1) != src.StoredMOBytes(1) {
		t.Fatal("site 1's store did not arrive")
	}
	if dst.StoredSet(0).Count() != 0 || dst.StoredMOBytes(0) != 0 || slices.Contains(dst.xComp, true) || slices.Contains(dst.xOpt, true) {
		t.Fatal("CopyStore touched more than site 1's store")
	}
	src.StoredSet(1).ForEach(func(k int) bool {
		src.Unstore(1, workload.ObjectID(k))
		return false
	})
	if dst.StoredSet(1).Count() != n {
		t.Fatal("the copy shares its bits with the source")
	}
}

// TestPlacementAllocs pins NewPlacement and Clone to a number of
// allocations that depends on the site count alone: the X and X' slabs, the
// offset and byte tables, and a bitset (two allocations) per site — never a
// row per page.
func TestPlacementAllocs(t *testing.T) {
	cfg := workload.SmallConfig()
	small := workload.MustGenerate(cfg, 5)
	cfg.PagesPerSiteMin, cfg.PagesPerSiteMax = 4*cfg.PagesPerSiteMin, 4*cfg.PagesPerSiteMax
	large := workload.MustGenerate(cfg, 5)
	if large.NumPages() < 3*small.NumPages() || large.NumSites() != small.NumSites() {
		t.Fatalf("workloads have %d and %d pages on %d and %d sites", small.NumPages(), large.NumPages(), small.NumSites(), large.NumSites())
	}
	for _, w := range []*workload.Workload{small, large} {
		p := NewPlacement(w)
		if got, want := testing.AllocsPerRun(10, func() { p = NewPlacement(w) }), float64(8+2*w.NumSites()); got != want {
			t.Errorf("%d pages: NewPlacement makes %v allocations, want %v", w.NumPages(), got, want)
		}
		if got, want := testing.AllocsPerRun(10, func() { p = p.Clone() }), float64(5+2*w.NumSites()); got != want {
			t.Errorf("%d pages: Clone makes %v allocations, want %v", w.NumPages(), got, want)
		}
	}
}

func TestBudgetsScale(t *testing.T) {
	_, w := tinyEnv(t)
	full := FullBudgets(w)
	// full storage = 10K HTML + 170K MOs.
	if full.Storage[0] != 180*units.KB {
		t.Errorf("full storage = %v", full.Storage[0])
	}
	half := full.Scale(w, 0.5, 0.4)
	if half.Storage[0] != 10*units.KB+85*units.KB {
		t.Errorf("scaled storage = %v", half.Storage[0])
	}
	almost(t, "scaled capacity", float64(half.SiteCapacity[0]), 60)
	zero := full.Scale(w, 0, 1)
	if zero.Storage[0] != 10*units.KB {
		t.Errorf("0%% storage should keep HTML: %v", zero.Storage[0])
	}
}

func TestBudgetsValidate(t *testing.T) {
	_, w := tinyEnv(t)
	b := FullBudgets(w)
	if err := b.Validate(w); err != nil {
		t.Fatal(err)
	}
	b.Storage = nil
	if err := b.Validate(w); err == nil {
		t.Error("mis-sized budgets accepted")
	}
	b2 := FullBudgets(w)
	b2.Storage[0] = -1
	if err := b2.Validate(w); err == nil {
		t.Error("negative storage accepted")
	}
	b3 := FullBudgets(w)
	b3.RepoCapacity = -5
	if err := b3.Validate(w); err == nil {
		t.Error("negative repo capacity accepted")
	}
}

func TestNewEnvValidation(t *testing.T) {
	_, w := tinyEnv(t)
	est := &netsim.Estimates{Sites: make([]netsim.SiteEstimate, 2)}
	if _, err := NewEnv(w, est, FullBudgets(w)); err == nil {
		t.Error("estimate/site count mismatch accepted")
	}
}

func TestReport(t *testing.T) {
	env, w := tinyEnv(t)
	p := AllLocal(w)
	r := Evaluate(env, p)
	if !r.Feasible() {
		t.Errorf("full budgets should be feasible: %v", r.Violations())
	}
	if !r.RepoOK() {
		t.Error("infinite repo capacity should be OK")
	}
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "objective") || !strings.Contains(sb.String(), "∞") {
		t.Errorf("report rendering:\n%s", sb.String())
	}

	// Tighten storage below usage → violation.
	env.Budgets.Storage[0] = 50 * units.KB
	r2 := Evaluate(env, p)
	if r2.Feasible() {
		t.Error("storage violation not detected")
	}
	if len(r2.Violations()) == 0 {
		t.Error("violations list empty")
	}
	// Tight repo capacity with all-remote → violation.
	env2, w2 := tinyEnv(t)
	env2.Budgets.RepoCapacity = 1
	rr := Evaluate(env2, AllRemote(w2))
	if rr.Feasible() || rr.RepoOK() {
		t.Error("repo violation not detected")
	}
}

func TestEvaluateOnGeneratedWorkload(t *testing.T) {
	w := workload.MustGenerate(workload.SmallConfig(), 17)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(w, est, FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	local, remote := AllLocal(w), AllRemote(w)
	if err := local.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	dLocal, dRemote := D(env, local), D(env, remote)
	if dLocal <= 0 || dRemote <= 0 {
		t.Fatal("objectives must be positive")
	}
	// The repository path is ~5× slower per byte; all-remote must lose badly.
	if dRemote < 2*dLocal {
		t.Errorf("expected all-remote ≫ all-local, got D=%v vs %v", dRemote, dLocal)
	}
	// All-local must fit in full storage budgets.
	r := Evaluate(env, local)
	for _, s := range r.Sites {
		if !s.StorageOK() {
			t.Errorf("site %d: all-local exceeds full storage (%v > %v)", s.Site, s.StorageUsed, s.StorageLimit)
		}
	}
	// The rows agree with the marks.
	countTrue := func(row []bool) int {
		n := 0
		for _, v := range row {
			if v {
				n++
			}
		}
		return n
	}
	for j := range w.Pages {
		if countTrue(local.compRow(j)) != len(w.Pages[j].Compulsory) {
			t.Fatalf("page %d comp count mismatch", j)
		}
		if countTrue(local.optRow(j)) != len(w.Pages[j].Optional) {
			t.Fatalf("page %d opt count mismatch", j)
		}
		if countTrue(remote.compRow(j)) != 0 {
			t.Fatalf("page %d remote comp count nonzero", j)
		}
	}
}

func TestPageWithNoRemoteObjectsPaysNoRepoOverhead(t *testing.T) {
	env, w := tinyEnv(t)
	p := AllLocal(w)
	if PageRemoteTime(env, p, 0) != 0 {
		t.Error("all-local page should pay no repository overhead")
	}
}

// TestLoadConservation: for any placement, a page's local and repository
// per-view request counts must sum to the fixed total 1 + |compulsory| +
// Σ U'_jk — requests are conserved, only their destination moves.
func TestLoadConservation(t *testing.T) {
	w := workload.MustGenerate(workload.SmallConfig(), 83)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(83))
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(w, est, FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(83)
	p := NewPlacement(w)
	// Random placement.
	for j := range w.Pages {
		pg := &w.Pages[j]
		for idx, k := range pg.Compulsory {
			if s.Bool(0.5) {
				p.Store(pg.Site, k)
				p.SetCompLocal(workload.PageID(j), idx, true)
			}
		}
		for idx, l := range pg.Optional {
			if s.Bool(0.5) {
				p.Store(pg.Site, l.Object)
				p.SetOptLocal(workload.PageID(j), idx, true)
			}
		}
	}
	for j := range w.Pages {
		pg := &w.Pages[j]
		pid := workload.PageID(j)
		want := 1.0 + float64(len(pg.Compulsory))
		for _, l := range pg.Optional {
			want += l.Prob
		}
		want *= float64(pg.Freq)
		got := float64(PageLocalLoad(env, p, pid)) + float64(PageRepoLoad(env, p, pid))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("page %d: local+repo load %v, want %v", j, got, want)
		}
	}
}
