package policies

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

func testWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	return workload.MustGenerate(workload.SmallConfig(), 61)
}

// compRef names page j's idx-th compulsory object as a cache policy's serve
// takes it.
func compRef(w *workload.Workload, j workload.PageID, idx int) (workload.SiteID, workload.ObjectID) {
	pg := &w.Pages[j]
	return pg.Site, pg.Compulsory[idx]
}

func TestStaticDelegatesToPlacement(t *testing.T) {
	w := testWorkload(t)
	p := model.AllLocal(w)
	s := NewStatic("ours", p)
	if s.Name() != "ours" {
		t.Errorf("name = %q", s.Name())
	}
	for j := range w.Pages {
		pid := workload.PageID(j)
		if _, remote, reqs := s.Compulsory(pid); remote != 0 || reqs != int64(len(w.Pages[j].Compulsory)) {
			t.Fatalf("all-local static served %v bytes remotely, %d objects locally, for page %d", remote, reqs, j)
		}
		for idx := range w.Pages[j].Optional {
			if !s.OptLocal(pid, idx) {
				t.Fatalf("all-local static returned remote optional for page %d", j)
			}
		}
	}
	if s.Placement() != p {
		t.Error("Placement() identity lost")
	}
}

func TestRemoteLocalNames(t *testing.T) {
	w := testWorkload(t)
	if NewRemote(w).Name() != "Remote" || NewLocal(w).Name() != "Local" {
		t.Error("baseline names wrong")
	}
	if local, _, reqs := NewRemote(w).Compulsory(0); local != 0 || reqs != 0 {
		t.Fatalf("remote policy served %d objects (%v) locally", reqs, local)
	}
}

func TestSizeThreshold(t *testing.T) {
	w := testWorkload(t)
	thr := int64(500 * units.KB)
	s := SizeThreshold(w, thr)
	if !strings.Contains(s.Name(), "SizeThreshold") {
		t.Errorf("name = %q", s.Name())
	}
	for j := range w.Pages {
		pid := workload.PageID(j)
		for idx, k := range w.Pages[j].Compulsory {
			want := int64(w.ObjectSize(k)) >= thr
			if s.Placement().CompLocal(pid, idx) != want {
				t.Fatalf("page %d object %d: threshold decision wrong", j, k)
			}
		}
	}
	if err := s.Placement().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHalfSplit(t *testing.T) {
	w := testWorkload(t)
	s := HalfSplit(w)
	for j := range w.Pages {
		pid := workload.PageID(j)
		comp := w.Pages[j].Compulsory
		localCount := 0
		var minLocal units.ByteSize = 1 << 60
		var maxRemote units.ByteSize
		for idx, k := range comp {
			if s.Placement().CompLocal(pid, idx) {
				localCount++
				if w.ObjectSize(k) < minLocal {
					minLocal = w.ObjectSize(k)
				}
			} else if w.ObjectSize(k) > maxRemote {
				maxRemote = w.ObjectSize(k)
			}
		}
		if localCount != (len(comp)+1)/2 {
			t.Fatalf("page %d: %d/%d local, want larger half", j, localCount, len(comp))
		}
		if localCount > 0 && localCount < len(comp) && minLocal < maxRemote {
			t.Fatalf("page %d: local set not the largest objects (%v < %v)", j, minLocal, maxRemote)
		}
	}
	if err := s.Placement().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUServeAndInsert(t *testing.T) {
	w := testWorkload(t)
	l, err := NewLRU(w, model.FullBudgets(w), 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "LRU" {
		t.Errorf("name = %q", l.Name())
	}
	// First access to any object is a miss (served remotely, inserted).
	j := workload.PageID(0)
	if l.serve(compRef(w, j, 0)) {
		t.Error("cold cache served locally")
	}
	// Second access is a hit (full budgets → admission 1).
	if !l.serve(compRef(w, j, 0)) {
		t.Error("warm object served remotely")
	}
	hits, misses, _, bytes := l.CacheStats(w.Pages[0].Site)
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
	if bytes <= 0 {
		t.Error("cache holds no bytes after insert")
	}
}

func TestLRUAdmissionUnconstrained(t *testing.T) {
	w := testWorkload(t)
	l, err := NewLRU(w, model.FullBudgets(w), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.NumSites(); i++ {
		if got := l.Admission(workload.SiteID(i)); got != 1 {
			t.Errorf("site %d admission = %v, want 1 under 150 req/s", i, got)
		}
	}
}

func TestLRUAdmissionThrottles(t *testing.T) {
	w := testWorkload(t)
	b := model.FullBudgets(w).Scale(w, 1, 0.05) // ~7.5 req/s, below demand
	l, err := NewLRU(w, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.NumSites(); i++ {
		a := l.Admission(workload.SiteID(i))
		if a <= 0 || a >= 1 {
			t.Errorf("site %d admission = %v, want in (0,1)", i, a)
		}
	}
	// Zero capacity → admission 0: every hit still goes to the repository.
	zb := model.FullBudgets(w).Scale(w, 1, 0)
	lz, err := NewLRU(w, zb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := lz.Admission(0); a != 0 {
		t.Errorf("zero-capacity admission = %v", a)
	}
	lz.serve(compRef(w, 0, 0)) // miss, inserts
	if lz.serve(compRef(w, 0, 0)) {
		t.Error("zero-capacity site served a hit locally")
	}
}

func TestLRUZeroStorage(t *testing.T) {
	w := testWorkload(t)
	b := model.FullBudgets(w).Scale(w, 0, 1) // HTML only: zero MO cache
	l, err := NewLRU(w, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		if l.serve(compRef(w, 0, 0)) {
			t.Fatal("zero-storage cache produced a hit")
		}
	}
}

func TestLRUEvictionUnderPressure(t *testing.T) {
	w := testWorkload(t)
	b := model.FullBudgets(w).Scale(w, 0.02, 1) // tiny cache
	l, err := NewLRU(w, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Touch every object of site 0's pages; evictions must occur.
	for _, pid := range w.Sites[0].Pages {
		for idx := range w.Pages[pid].Compulsory {
			l.serve(compRef(w, pid, idx))
		}
	}
	_, _, ev, bytes := l.CacheStats(0)
	if ev == 0 {
		t.Error("no evictions in a tiny cache")
	}
	moBudget := b.Storage[0] - w.HTMLStorageBytes(0)
	if bytes > moBudget {
		t.Errorf("cache bytes %v over budget %v", bytes, moBudget)
	}
}

func TestNewLRUValidation(t *testing.T) {
	w := testWorkload(t)
	b := model.FullBudgets(w)
	b.Storage = b.Storage[:1]
	if _, err := NewLRU(w, b, 1); err == nil {
		t.Error("mis-sized budgets accepted")
	}
}
