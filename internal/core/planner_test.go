package core

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// handEnv builds the hand-checkable single-site environment used by the
// partition tests: HTML 10 KB, compulsory objects of 100/50/20 KB, one
// optional 30 KB link, B(S)=10 KB/s, B(R,S)=5 KB/s, Ovhd(S)=1 s,
// Ovhd(R,S)=2 s, f = 1 req/s.
func handEnv(t *testing.T) *model.Env {
	t.Helper()
	w := &workload.Workload{
		Config: workload.Config{Alpha1: 2, Alpha2: 1},
		Objects: []workload.Object{
			{ID: 0, Size: 100 * units.KB},
			{ID: 1, Size: 50 * units.KB},
			{ID: 2, Size: 20 * units.KB},
			{ID: 3, Size: 30 * units.KB},
		},
		Pages: []workload.Page{{
			ID: 0, Site: 0, HTMLSize: 10 * units.KB, Freq: 1,
			Compulsory: []workload.ObjectID{0, 1, 2},
			Optional:   []workload.OptionalLink{{Object: 3, Prob: 0.03}},
		}},
		Sites: []workload.Site{{
			ID: 0, Pages: []workload.PageID{0},
			Objects:  []workload.ObjectID{0, 1, 2, 3},
			Capacity: 150,
		}},
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	est := &netsim.Estimates{Sites: []netsim.SiteEstimate{{
		LocalRate: 10 * units.KBPerSec,
		RepoRate:  5 * units.KBPerSec,
		LocalOvhd: 1,
		RepoOvhd:  2,
	}}}
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// genEnv builds a generated small environment with realistic estimates.
func genEnv(t *testing.T, seed uint64) *model.Env {
	t.Helper()
	w := workload.MustGenerate(workload.SmallConfig(), seed)
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestPartitionPageHandExample(t *testing.T) {
	env := handEnv(t)
	pl := NewPlanner(env)
	pl.PartitionPage(0)

	// Walkthrough (sizes visited 100, 50, 20):
	//   local = 1 + 10/10 = 2, remote = 2
	//   100K: remoteIf = 2+20 = 22, localIf = 2+10 = 12  -> local  (12)
	//    50K: remoteIf = 2+10 = 12, localIf = 12+5 = 17  -> remote (12)
	//    20K: remoteIf = 12+4 = 16, localIf = 12+2 = 14  -> local  (14)
	if !pl.p.CompLocal(0, 0) {
		t.Error("100 KB object should be local")
	}
	if pl.p.CompLocal(0, 1) {
		t.Error("50 KB object should be remote")
	}
	if !pl.p.CompLocal(0, 2) {
		t.Error("20 KB object should be local")
	}
	if got := float64(pl.pageTime(0)); math.Abs(got-14) > 1e-9 {
		t.Errorf("page time = %v, want 14", got)
	}
	// Local objects must be stored; the remote one must not be forced in.
	if !pl.p.IsStored(0, 0) || !pl.p.IsStored(0, 2) {
		t.Error("local objects not stored")
	}
	if pl.p.IsStored(0, 1) {
		t.Error("remote object needlessly stored")
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSiteStoresOptional(t *testing.T) {
	env := handEnv(t)
	pl := NewPlanner(env)
	pl.PartitionSite(0)
	if !pl.p.IsStored(0, 3) {
		t.Error("optional object not stored")
	}
	if !pl.p.OptLocal(0, 0) {
		t.Error("optional link not marked local")
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBeatsBothSingleChainsOnEstimates(t *testing.T) {
	env := genEnv(t, 1)
	pl := NewPlanner(env)
	pl.PartitionAll()
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	d := pl.D()
	dLocal := model.D(env, model.AllLocal(env.W))
	dRemote := model.D(env, model.AllRemote(env.W))
	if d > dLocal+1e-9 {
		t.Errorf("partitioned D %v worse than all-local %v", d, dLocal)
	}
	if d > dRemote+1e-9 {
		t.Errorf("partitioned D %v worse than all-remote %v", d, dRemote)
	}
}

func TestPartitionPageGreedyInvariant(t *testing.T) {
	// For every page, no single compulsory flip may improve the page's
	// retrieval time: PARTITION should land in a 1-flip local optimum of
	// Eq. 5. (The greedy visits objects in decreasing size; a profitable
	// single flip afterwards would contradict its choice structure.)
	env := genEnv(t, 2)
	pl := NewPlanner(env)
	pl.PartitionAll()
	for j := range env.W.Pages {
		pid := workload.PageID(j)
		for idx := range env.W.Pages[j].Compulsory {
			cur := pl.p.CompLocal(pid, idx)
			if delta := pl.previewFlipComp(pid, idx, !cur); delta < -1e-9 {
				t.Fatalf("page %d object idx %d: flipping %v→%v improves D by %v",
					j, idx, cur, !cur, -delta)
			}
		}
	}
}

func TestFlipCompUpdatesCaches(t *testing.T) {
	env := handEnv(t)
	pl := NewPlanner(env)
	pl.p.Store(0, 0)
	pl.flipComp(0, 0, true)
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	pl.flipComp(0, 0, true) // no-op
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	pl.flipComp(0, 0, false)
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	if pl.localMarks[pl.slot(0, 0)] != 0 {
		t.Errorf("mark count = %d after flip round-trip", pl.localMarks[pl.slot(0, 0)])
	}
}

func TestFlipOptUpdatesCaches(t *testing.T) {
	env := handEnv(t)
	pl := NewPlanner(env)
	pl.p.Store(0, 3)
	pl.flipOpt(0, 0, true)
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	pl.flipOpt(0, 0, false)
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPreviewMatchesFlip(t *testing.T) {
	env := genEnv(t, 3)
	pl := NewPlanner(env)
	pl.PartitionAll()
	// For a sample of pages, previewFlip* must equal the actual ΔD.
	count := 0
	for j := range env.W.Pages {
		if count >= 50 {
			break
		}
		pid := workload.PageID(j)
		pg := &env.W.Pages[j]
		for idx := range pg.Compulsory {
			cur := pl.p.CompLocal(pid, idx)
			preview := pl.previewFlipComp(pid, idx, !cur)
			before := pl.D()
			if !cur {
				pl.p.Store(pg.Site, pg.Compulsory[idx])
			}
			pl.flipComp(pid, idx, !cur)
			got := pl.D() - before
			if math.Abs(got-preview) > 1e-6*(1+math.Abs(preview)) {
				t.Fatalf("page %d idx %d: preview %v actual %v", j, idx, preview, got)
			}
			pl.flipComp(pid, idx, cur) // restore
			count++
		}
		for idx := range pg.Optional {
			cur := pl.p.OptLocal(pid, idx)
			preview := pl.previewFlipOpt(pid, idx, !cur)
			before := pl.D()
			if !cur {
				pl.p.Store(pg.Site, pg.Optional[idx].Object)
			}
			pl.flipOpt(pid, idx, !cur)
			got := pl.D() - before
			if math.Abs(got-preview) > 1e-6*(1+math.Abs(preview)) {
				t.Fatalf("page %d opt %d: preview %v actual %v", j, idx, preview, got)
			}
			pl.flipOpt(pid, idx, cur)
			count++
		}
	}
	if err := pl.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRef(t *testing.T) {
	cases := []struct {
		j   workload.PageID
		idx int
		opt bool
	}{{0, 0, false}, {1, 5, true}, {8000, 84, true}, {123456, 2000, false}, {1 << 30, 1<<workload.PageRefBits - 1, true}}
	for _, c := range cases {
		j, idx, opt := decodeRef(encodeRef(c.j, c.idx, c.opt))
		if j != c.j || idx != c.idx || opt != c.opt {
			t.Errorf("roundtrip (%d,%d,%v) -> (%d,%d,%v)", c.j, c.idx, c.opt, j, idx, opt)
		}
	}
}

func TestLazyHeap(t *testing.T) {
	h := newLazyHeap([]heapItem{{key: 3, id: 3}, {key: 1, id: 1}, {key: 2, id: 2}})
	order := []int64{}
	for {
		id, _, ok := h.popFresh(func(id int64) (float64, bool) { return float64(id), true })
		if !ok {
			break
		}
		order = append(order, id)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("pop order = %v", order)
	}
}

func TestLazyHeapStaleKeys(t *testing.T) {
	// Keys recompute to the reverse of the initial order: the heap must
	// re-sort lazily and still drain fully.
	h := newLazyHeap([]heapItem{{key: 1, id: 10}, {key: 2, id: 20}, {key: 3, id: 30}})
	fresh := map[int64]float64{10: 9, 20: 5, 30: 1}
	var order []int64
	for {
		id, key, ok := h.popFresh(func(id int64) (float64, bool) { return fresh[id], true })
		if !ok {
			break
		}
		if key != fresh[id] {
			t.Errorf("returned key %v for id %d, want %v", key, id, fresh[id])
		}
		order = append(order, id)
	}
	if len(order) != 3 || order[0] != 30 || order[1] != 20 || order[2] != 10 {
		t.Errorf("stale-key pop order = %v", order)
	}
}

func TestLazyHeapDropsInvalid(t *testing.T) {
	h := newLazyHeap([]heapItem{{key: 1, id: 1}, {key: 2, id: 2}})
	id, _, ok := h.popFresh(func(id int64) (float64, bool) { return float64(id), id != 1 })
	if !ok || id != 2 {
		t.Errorf("got (%d,%v), want id 2", id, ok)
	}
	if _, _, ok := h.popFresh(func(int64) (float64, bool) { return 0, false }); ok {
		t.Error("exhausted heap returned an item")
	}
}

func TestExplain(t *testing.T) {
	env := genEnv(t, 57)
	pl := NewPlanner(env)
	pl.PartitionAll()

	pid := env.W.Sites[0].Pages[0]
	ex := pl.Explain(pid)
	if ex.Page != pid || ex.Site != 0 {
		t.Fatal("identity fields wrong")
	}
	if len(ex.Objects) != len(env.W.Pages[pid].Compulsory) {
		t.Fatalf("explained %d objects", len(ex.Objects))
	}
	// Sorted by decreasing size.
	for i := 1; i < len(ex.Objects); i++ {
		if ex.Objects[i].Size > ex.Objects[i-1].Size {
			t.Fatal("objects not size-sorted")
		}
	}
	// Page time is the max of the chains and Bound names the larger one.
	if ex.PageTime != units.MaxSeconds(ex.LocalTime, ex.RemoteTime) {
		t.Fatal("page time inconsistent")
	}
	if (ex.Bound == "local") != (ex.LocalTime >= ex.RemoteTime) {
		t.Fatal("bound label wrong")
	}
	// After PARTITION no single flip should improve D.
	for _, o := range ex.Objects {
		if o.FlipDelta < -1e-9 {
			t.Errorf("object %d: profitable flip (ΔD=%v) survived PARTITION", o.Object, o.FlipDelta)
		}
		if o.Local && !o.Stored {
			t.Errorf("object %d local but unstored", o.Object)
		}
	}

	var sb strings.Builder
	if err := ex.Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"page W", "chains:", "flip ΔD"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("explanation missing %q", want)
		}
	}

	// Equal sizes are listed as PARTITION visits them, by position on the
	// page: objects 1 and 0 are listed in reverse ID order here.
	hand := handEnv(t)
	hand.W.Objects[0].Size = hand.W.Objects[1].Size
	hand.W.Pages[0].Compulsory = []workload.ObjectID{1, 0, 2}
	pl = NewPlanner(hand)
	pl.PartitionAll()
	var got []workload.ObjectID
	for _, o := range pl.Explain(0).Objects {
		got = append(got, o.Object)
	}
	if want := []workload.ObjectID{1, 0, 2}; !slices.Equal(got, want) {
		t.Errorf("equal-size objects explained in order %v, PARTITION visits %v", got, want)
	}
}

func TestAdoptPlacement(t *testing.T) {
	env := genEnv(t, 58)
	// Build a reference plan, then adopt it into a fresh planner.
	ref := NewPlanner(env)
	ref.PartitionAll()

	fresh := NewPlanner(env)
	if err := fresh.AdoptPlacement(ref.Placement()); err != nil {
		t.Fatal(err)
	}
	if err := fresh.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(fresh.D()-ref.D()) > 1e-6 {
		t.Errorf("adopted D %v != reference %v", fresh.D(), ref.D())
	}
	for i := range env.W.Sites {
		id := workload.SiteID(i)
		if !fresh.Placement().StoredSet(id).Equal(ref.Placement().StoredSet(id)) {
			t.Fatalf("site %d store differs after adoption", i)
		}
	}
}

// TestPartitionOrderMatchesComparator holds the workload's PARTITION order
// table, and the walk partitionSplit makes over it, to the comparator it
// replaced — decreasing size, then idx — on pages with repeated sizes, on a
// single-object page, on a page longer than the builder's insertion-sort
// cutoff (64: the slices.Sort path), on a page whose sizes are all equal, on
// a page listing equal sizes in reverse object-ID order (so a tie broken by
// ID shows), on every page of a generated workload and of a Derive copy of
// it, which shares the table; and the walk to page order under
// UnsortedPartition. A Derive copy whose compulsory list was then edited
// (which Derive forbids) fails VerifyConsistency.
func TestPartitionOrderMatchesComparator(t *testing.T) {
	w := &workload.Workload{
		Config: workload.Config{Alpha1: 1, Alpha2: 1},
		Pages: []workload.Page{
			{ID: 0, Site: 0, HTMLSize: 10, Freq: 1},
			{ID: 1, Site: 0, HTMLSize: 10, Freq: 1},
			{ID: 2, Site: 0, HTMLSize: 10, Freq: 1},
			{ID: 3, Site: 0, HTMLSize: 10, Freq: 1},
			{ID: 4, Site: 0, HTMLSize: 10, Freq: 1},
		},
		Sites: []workload.Site{{ID: 0, Pages: []workload.PageID{0, 1, 2, 3, 4}}},
	}
	page := func(j int, sizes ...units.ByteSize) {
		for _, size := range sizes {
			k := workload.ObjectID(len(w.Objects))
			w.Objects = append(w.Objects, workload.Object{ID: k, Size: size})
			w.Pages[j].Compulsory = append(w.Pages[j].Compulsory, k)
		}
	}
	page(0, 50, 50, 100, 20, 50, 100, 1, workload.MaxObjectSize, 100, 20)
	page(1, 7)
	var long, equal []units.ByteSize
	for k := range 2*64 + 3 {
		long = append(long, units.ByteSize(1+k*37%11))
	}
	for range 64 {
		equal = append(equal, 64)
	}
	page(2, long...)
	page(3, equal...)
	page(4, 30, 5, 30, 30)
	slices.Reverse(w.Pages[4].Compulsory)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	est := &netsim.Estimates{Sites: []netsim.SiteEstimate{{LocalRate: 10, RepoRate: 5, LocalOvhd: 1, RepoOvhd: 2}}}
	hand, err := model.NewEnv(w, est, model.FullBudgets(w))
	if err != nil {
		t.Fatal(err)
	}
	gen := genEnv(t, 7)
	derived, err := model.NewEnv(gen.W.Derive(), gen.Est, gen.Budgets)
	if err != nil {
		t.Fatal(err)
	}
	if derived.W.PartitionOrder() != gen.W.PartitionOrder() {
		t.Error("a Derive copy does not share its source's PARTITION order")
	}
	for _, env := range []*model.Env{hand, gen, derived} {
		order := env.W.PartitionOrder()
		for _, unsorted := range []bool{false, true} {
			pl := NewPlanner(env)
			pl.UnsortedPartition = unsorted
			for j := range env.W.Pages {
				pg := &env.W.Pages[j]
				var walked, want []int
				pl.partitionSplit(workload.PageID(j), pl.partitionOrder(), func(idx int, _ bool) { walked = append(walked, idx) })
				for idx := range pg.Compulsory {
					want = append(want, idx)
				}
				if unsorted {
					if !slices.Equal(walked, want) {
						t.Fatalf("unsorted page %d: visit order %v, page order %v", j, walked, want)
					}
					continue
				}
				slices.SortFunc(want, func(a, b int) int {
					sa, sb := env.W.ObjectSize(pg.Compulsory[a]), env.W.ObjectSize(pg.Compulsory[b])
					if sa != sb {
						return cmp.Compare(sb, sa) // decreasing size
					}
					return cmp.Compare(a, b) // index tie-break: a strict total order
				})
				var table []int
				for _, idx := range order.Page(workload.PageID(j)) {
					table = append(table, int(idx))
				}
				if !slices.Equal(table, want) || !slices.Equal(walked, want) {
					t.Fatalf("page %d: table %v, walked %v, comparator order %v", j, table, walked, want)
				}
			}
			if err := pl.VerifyConsistency(); err != nil {
				t.Fatalf("unsorted=%v: %v", unsorted, err)
			}
		}
	}

	// Swap two objects of different sizes on one of the derived copy's
	// pages: the shared table visits the larger first, a sort of the edited
	// page the other way round.
	stale := derived.W
	for j := range stale.Pages {
		c := stale.Pages[j].Compulsory
		if v := slices.IndexFunc(c, func(k workload.ObjectID) bool { return stale.ObjectSize(k) != stale.ObjectSize(c[0]) }); v > 0 {
			c = slices.Clone(c)
			c[0], c[v] = c[v], c[0]
			stale.Pages[j].Compulsory = c
			break
		}
	}
	if err := NewPlanner(derived).VerifyConsistency(); err == nil || !strings.Contains(err.Error(), "PARTITION order") {
		t.Errorf("a stale PARTITION order passed VerifyConsistency (err %v)", err)
	}
}
