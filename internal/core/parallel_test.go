package core

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// samePlacement fails the test unless a and b agree on every X/X' mark and
// every site's replica set.
func samePlacement(t *testing.T, a, b *model.Placement, label string) {
	t.Helper()
	w := a.Workload()
	for j := range w.Pages {
		pid := workload.PageID(j)
		for idx := range w.Pages[j].Compulsory {
			if a.CompLocal(pid, idx) != b.CompLocal(pid, idx) {
				t.Fatalf("%s: page %d comp %d differs", label, j, idx)
			}
		}
		for idx := range w.Pages[j].Optional {
			if a.OptLocal(pid, idx) != b.OptLocal(pid, idx) {
				t.Fatalf("%s: page %d opt %d differs", label, j, idx)
			}
		}
	}
	for i := range w.Sites {
		id := workload.SiteID(i)
		if !a.StoredSet(id).Equal(b.StoredSet(id)) {
			t.Fatalf("%s: site %d stores differ", label, i)
		}
		if a.StoredMOBytes(id) != b.StoredMOBytes(id) {
			t.Fatalf("%s: site %d stored bytes differ", label, i)
		}
	}
}

// TestPartitionParallelMatchesSequential pins the per-site PARTITION
// fan-out against the flip-based sequential reference: identical placement bits and store
// sets for any worker count, and site accumulators that agree with the
// model recomputation.
func TestPartitionParallelMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		env := genEnv(t, 71)
		seq := NewPlanner(env)
		seq.PartitionAll()

		par := NewPlanner(env)
		par.PartitionParallel(workers, nil)

		samePlacement(t, seq.Placement(), par.Placement(), "partition")
		if err := par.VerifyConsistency(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d1, d2 := seq.D1(), par.D1(); !approxEqual(d1, d2, 1e-9) {
			t.Errorf("workers=%d: D1 %v vs sequential %v", workers, d2, d1)
		}
		for i := range env.W.Sites {
			id := workload.SiteID(i)
			if !approxEqual(float64(seq.SiteLoad(id)), float64(par.SiteLoad(id)), 1e-9) {
				t.Errorf("workers=%d: site %d load differs", workers, i)
			}
		}
	}
}

// TestPartitionParallelUnsorted checks the ablation switch threads through
// the site fan-out: the unsorted variant must match the sequential unsorted
// reference, not the sorted one.
func TestPartitionParallelUnsorted(t *testing.T) {
	env := genEnv(t, 72)
	seq := NewPlanner(env)
	seq.UnsortedPartition = true
	for j := range env.W.Pages {
		seq.PartitionPage(workload.PageID(j))
	}

	par := NewPlanner(env)
	par.UnsortedPartition = true
	par.PartitionParallel(4, nil)
	w := env.W
	for j := range w.Pages {
		pid := workload.PageID(j)
		for idx := range w.Pages[j].Compulsory {
			if seq.Placement().CompLocal(pid, idx) != par.Placement().CompLocal(pid, idx) {
				t.Fatalf("unsorted partition: page %d comp %d differs", j, idx)
			}
		}
	}
}

// TestPartitionOrderFirstUse races the first uses of a fresh workload's
// PARTITION order (run under -race): four goroutines plan it at Workers 2
// while a fifth derives a copy, which shares or builds the order as the
// others are building it, and plans that. Every plan must equal a plan of
// an identical workload made alone, and the copy must end up with its
// source's order.
func TestPartitionOrderFirstUse(t *testing.T) {
	want, _, err := Plan(genEnv(t, 73), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	env := genEnv(t, 73)
	plans := make([]*model.Placement, 5)
	var derived *workload.Workload
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := env
			if g == len(plans)-1 {
				derived = env.W.Derive()
				copied := *env
				copied.W = derived
				e = &copied
			}
			p, _, err := Plan(e, Options{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			plans[g] = p
		}()
	}
	wg.Wait()
	for g, p := range plans {
		if p == nil || !p.Equal(want) {
			t.Errorf("goroutine %d: plan differs from the plan made alone", g)
		}
	}
	if derived.PartitionOrder() != env.W.PartitionOrder() {
		t.Error("the Derive copy holds a different PARTITION order from its source")
	}
}

// TestSiteIndexFirstUse races the first uses of a fresh workload's site
// indexes (run under -race): four goroutines plan it under budgets that
// restore every site, at Workers 2, while a fifth derives a copy, re-homes
// site 1's pages onto the others and plans that. Every plan must equal a
// plan of an identical workload made alone, the copy must have built its
// own indexes (a re-homed site lists other pages), and each planner must
// pass VerifyConsistency's rescan of the indexes it read.
func TestSiteIndexFirstUse(t *testing.T) {
	constrained := func(w *workload.Workload) *model.Env {
		env := genEnv(t, 73)
		env.W = w
		env.Budgets = model.FullBudgets(w).Scale(w, 0.4, 0.7)
		return env
	}
	opts := Options{Workers: 2}
	want, _, err := Plan(constrained(genEnv(t, 73).W), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRehomed, _, err := Plan(constrained(rehomed(genEnv(t, 73).W, 1)), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := genEnv(t, 73).W
	planners := make([]*Planner, 5)
	var wg sync.WaitGroup
	for g := range planners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := constrained(w)
			if g == len(planners)-1 {
				env = constrained(rehomed(w, 1))
			}
			pl := partition(env, opts)
			if _, _, err := pl.finish(opts); err != nil {
				t.Error(err)
				return
			}
			planners[g] = pl
		}()
	}
	wg.Wait()
	for g, pl := range planners {
		if pl == nil {
			t.Fatalf("goroutine %d did not plan", g)
		}
		ref := want
		if g == len(planners)-1 {
			ref = wantRehomed
		}
		if !pl.Placement().Equal(ref) {
			t.Errorf("goroutine %d: plan differs from the plan made alone", g)
		}
		if err := pl.VerifyConsistency(); err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	derived := planners[len(planners)-1].env.W
	for i := range workload.SiteID(w.NumSites()) {
		if i == 1 { // the copy's site 1 hosts nothing
			continue
		}
		if !w.SiteIndexBuilt(i) || !derived.SiteIndexBuilt(i) {
			t.Fatalf("site %d's index is unbuilt on the workload (%v) or its copy (%v): the budgets restore nothing there",
				i, w.SiteIndexBuilt(i), derived.SiteIndexBuilt(i))
		}
		if _, refs := w.SiteIndex(i); len(refs) > 0 {
			if _, copied := derived.SiteIndex(i); len(copied) > 0 && &copied[0] == &refs[0] {
				t.Errorf("site %d: the Derive copy reads its source's index", i)
			}
		}
	}
}

// TestOffloadParallelMatchesSequential runs the same constrained
// negotiation through the sequential coordinator and with the sites
// accepting concurrently in place, and requires bit-identical stats,
// placements, message logs and caches.
func TestOffloadParallelMatchesSequential(t *testing.T) {
	build := func() *Planner {
		env := genEnv(t, 73)
		env.Budgets = env.Budgets.Scale(env.W, 0.6, 0.7)
		pl := NewPlanner(env)
		pl.PartitionParallel(1, nil)
		for i := range env.W.Sites {
			pl.RestoreStorageSite(workload.SiteID(i))
			pl.RestoreProcessingSite(workload.SiteID(i))
		}
		// Cap the repository at 60 % of its current load so the
		// negotiation has real work, including swaps on tight stores.
		env.Budgets.RepoCapacity = units.ReqPerSec(float64(pl.RepoLoad()) * 0.6)
		return pl
	}

	seq := build()
	var seqLog strings.Builder
	seqStats := seq.Offload(&seqLog)

	par := build()
	var parLog strings.Builder
	parStats := par.OffloadParallel(&parLog, 4, nil)

	if seqStats != parStats {
		t.Errorf("offload stats differ:\nsequential %+v\nparallel   %+v", seqStats, parStats)
	}
	if seqLog.String() != parLog.String() {
		t.Errorf("offload message logs differ:\n--- sequential\n%s--- parallel\n%s", seqLog.String(), parLog.String())
	}
	samePlacement(t, seq.Placement(), par.Placement(), "offload")
	if seq.D() != par.D() {
		t.Errorf("offload D differs: %v vs %v", seq.D(), par.D())
	}
	if err := par.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanWorkersDeterminismProperty is the race-detector determinism
// property (run via `go test -race ./internal/core/`): on seeded random
// workloads with random budget scales — including a constrained repository
// so the off-loading negotiation runs — Plan with Workers: 1 and with
// Workers: runtime.NumCPU() (and an oversubscribed pool) must produce
// identical placements, message logs and off-loading statistics and an
// identical D, bit for bit.
func TestPlanWorkersDeterminismProperty(t *testing.T) {
	workerCounts := []int{1, 4, runtime.NumCPU(), 3 * runtime.NumCPU()}
	for seed := uint64(0); seed < 6; seed++ {
		s := rng.New(900 + seed)
		storage := 0.3 + 0.7*s.Float64()
		capacity := 0.4 + 0.6*s.Float64()
		repo := 0.5 + 0.5*s.Float64()

		build := func() *model.Env {
			w := workload.MustGenerate(workload.SmallConfig(), 900+seed)
			est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(900+seed))
			if err != nil {
				t.Fatal(err)
			}
			env, err := model.NewEnv(w, est, model.FullBudgets(w).Scale(w, storage, capacity))
			if err != nil {
				t.Fatal(err)
			}
			return env
		}

		// Size the repository cap from a probe so the negotiation runs.
		probeEnv := build()
		probe, _, err := Plan(probeEnv, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pre := model.RepoLoad(probeEnv, probe)

		var refP *model.Placement
		var refRes *Result
		var refLog string
		for wi, workers := range workerCounts {
			env := build()
			env.Budgets.RepoCapacity = units.ReqPerSec(float64(pre) * repo)
			var log strings.Builder
			p, res, err := Plan(env, Options{Workers: workers, Refine: seed%2 == 0, MessageLog: &log})
			if err != nil {
				t.Fatal(err)
			}
			if wi == 0 {
				refP, refRes, refLog = p, res, log.String()
				continue
			}
			if res.D != refRes.D {
				t.Errorf("seed %d: D with workers=%d is %v, workers=1 gave %v", seed, workers, res.D, refRes.D)
			}
			if res.Offload != refRes.Offload {
				t.Errorf("seed %d: offload stats with workers=%d are %+v, workers=1 gave %+v", seed, workers, res.Offload, refRes.Offload)
			}
			if log.String() != refLog {
				t.Errorf("seed %d: message log with workers=%d differs from workers=1:\n%s--- workers=1\n%s", seed, workers, log.String(), refLog)
			}
			samePlacement(t, refP, p, "plan determinism")
		}
	}
}

// TestPlanMessageLogRepeatable is the regression test for the scheduling-
// order message log: a constrained-repository plan repeated at every worker
// count must print the same bytes and fold the same OffloadStats (MovedLocal
// is a float sum over the answers) as the Workers: 1 run, every time. A
// dispatcher that folds answers in arrival order fails this in most
// repeats.
func TestPlanMessageLogRepeatable(t *testing.T) {
	build := func() *model.Env {
		env := genEnv(t, 75)
		env.Budgets = env.Budgets.Scale(env.W, 0.6, 0.7)
		return env
	}
	probeEnv := build()
	probe, _, err := Plan(probeEnv, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	repoCap := units.ReqPerSec(float64(model.RepoLoad(probeEnv, probe)) * 0.6)

	plan := func(workers int) (string, OffloadStats) {
		env := build()
		env.Budgets.RepoCapacity = repoCap
		var log strings.Builder
		_, res, err := Plan(env, Options{Workers: workers, MessageLog: &log})
		if err != nil {
			t.Fatal(err)
		}
		return log.String(), res.Offload
	}
	refLog, refStats := plan(1)
	if !refStats.Ran || strings.Count(refLog, "<- S") < 2 {
		t.Fatalf("negotiation too small to order anything (stats %+v):\n%s", refStats, refLog)
	}
	for _, workers := range []int{1, 2, 4, 3 * runtime.NumCPU()} {
		for rep := 0; rep < 20; rep++ {
			log, stats := plan(workers)
			if log != refLog {
				t.Fatalf("workers=%d repeat %d: message log differs from Workers: 1:\n%s--- Workers: 1\n%s", workers, rep, log, refLog)
			}
			if stats != refStats {
				t.Fatalf("workers=%d repeat %d: offload stats %+v, Workers: 1 gave %+v", workers, rep, stats, refStats)
			}
		}
	}
}

// TestFanOutVisitsEachIndexOnce pins the one fan-out helper: every index in
// [0, n) reaches fn exactly once, a nil span costs no clock read, and a
// span gets one start/stop pair per worker actually started.
func TestFanOutVisitsEachIndexOnce(t *testing.T) {
	var reads atomic.Int64
	clock = func() time.Time {
		return time.Unix(reads.Add(1), 0)
	}
	defer func() { clock = time.Now }()

	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, workers := range []int{0, 1, 3, n + 5} {
			buf := trace.NewBuffer(0)
			for _, sp := range []*trace.Active{nil, trace.NewTracer(buf, 1, trace.KindPlan).StartTrace("fan-out")} {
				visits := make([]atomic.Int32, n)
				reads.Store(0)
				fanOut(workers, n, sp, func(i int) { visits[i].Add(1) })
				for i := range visits {
					if v := visits[i].Load(); v != 1 {
						t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
					}
				}
				wantReads := int64(0)
				if sp != nil {
					wantReads = 2 * int64(max(1, min(workers, n)))
				}
				if got := reads.Load(); got != wantReads {
					t.Errorf("n=%d workers=%d span=%v: %d clock reads, want %d", n, workers, sp != nil, got, wantReads)
				}
				sp.End()
				if sp != nil && buf.Spans()[0].Attr(trace.AttrBusyS) == "" {
					t.Errorf("n=%d workers=%d: no busy time recorded", n, workers)
				}
			}
		}
	}
}

// TestSitesMutateDisjointState tests the invariant the parallel planner
// rests on, directly: restoration and off-loading acceptance for every site
// at once, on one shared planner, neither race (run under -race) nor
// disturb each other — the outcome is the one the same calls give site by
// site, and every cache still agrees with the model.
func TestSitesMutateDisjointState(t *testing.T) {
	build := func() *Planner {
		env := genEnv(t, 76)
		env.Budgets = env.Budgets.Scale(env.W, 0.5, 0.2)
		pl := NewPlanner(env)
		pl.PartitionParallel(1, nil)
		return pl
	}
	type answer struct {
		deallocs, flips int
		accept          AcceptResult
	}
	perSite := func(pl *Planner, i workload.SiteID) answer {
		d := pl.RestoreStorageSite(i)
		f := pl.RestoreProcessingSite(i)
		return answer{d, f, pl.AcceptWorkload(i, units.ReqPerSec(math.Inf(1)))}
	}

	seq := build()
	numSites := seq.env.W.NumSites()
	want := make([]answer, numSites)
	var sum answer
	for i := range want {
		want[i] = perSite(seq, workload.SiteID(i))
		sum.deallocs += want[i].deallocs
		sum.flips += want[i].flips
		sum.accept.Stored += want[i].accept.Stored
	}
	if sum.deallocs == 0 || sum.flips == 0 || sum.accept.Stored == 0 {
		t.Fatalf("budgets leave a phase idle: %+v", sum)
	}

	par := build()
	got := make([]answer, numSites)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = perSite(par, workload.SiteID(i))
		}()
	}
	wg.Wait()

	for i := range want {
		if got[i] != want[i] {
			t.Errorf("site %d: concurrent answer %+v, sequential %+v", i, got[i], want[i])
		}
	}
	samePlacement(t, seq.Placement(), par.Placement(), "concurrent sites")
	if seq.D() != par.D() {
		t.Errorf("D differs: sequential %v, concurrent %v", seq.D(), par.D())
	}
	if err := par.VerifyConsistency(); err != nil {
		t.Fatal(err)
	}
}
