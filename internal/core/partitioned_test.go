package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/units"
)

// TestPartitionIgnoresBudgets pins what lets one PARTITION serve a whole
// budget sweep: NewPlanner and PartitionParallel read the workload and the
// estimates only. Two environments over one W and Est that differ in every
// budget and in α must leave every planner field but env deeply equal —
// the placement and all cached cells. It fails the day PARTITION starts
// reading a budget.
func TestPartitionIgnoresBudgets(t *testing.T) {
	a := genEnv(t, 424242)
	b := *a
	b.Budgets = a.Budgets.Scale(a.W, 0.3, 0.4)
	b.Budgets.RepoCapacity = units.ReqPerSec(1)
	b.Alpha1, b.Alpha2 = 0.25, 4
	if reflect.DeepEqual(a.Budgets, b.Budgets) {
		t.Fatal("the two environments share their budgets")
	}
	for _, workers := range []int{1, 4} {
		var planners [2]Planner
		for n, env := range []*model.Env{a, &b} {
			pl := NewPlanner(env)
			pl.PartitionParallel(workers, nil)
			planners[n] = *pl
			planners[n].env = nil
		}
		if !reflect.DeepEqual(planners[0], planners[1]) {
			t.Errorf("workers=%d: PARTITION's state depends on the budgets or α", workers)
		}
	}
}

// sweepCase is one budget point of a sweep over one workload.
type sweepCase struct {
	label string
	b     model.Budgets
	opts  Options
}

// sweepGrid is the equivalence grid over env's workload: storage-only at
// 10-100 %, capacity-only at 0-100 %, the repository capped at 90/70/50 %
// of a probe plan's load (the Figure 3 recipe), the refine sweep and the
// re-partitioning ablation.
func sweepGrid(t *testing.T, env *model.Env) []sweepCase {
	t.Helper()
	w := env.W
	storageOnly := func(frac float64) model.Budgets {
		b := model.FullBudgets(w).Scale(w, frac, 1)
		for i := range b.SiteCapacity {
			b.SiteCapacity[i] = model.Infinite()
		}
		b.RepoCapacity = model.Infinite()
		return b
	}
	capacityOnly := func(frac float64) model.Budgets {
		b := storageOnly(1)
		for i := range b.SiteCapacity {
			b.SiteCapacity[i] = units.ReqPerSec(float64(w.Sites[i].Capacity) * frac)
		}
		return b
	}
	var grid []sweepCase
	for i := 1; i <= 10; i++ {
		frac := float64(i) / 10
		grid = append(grid, sweepCase{fmt.Sprintf("storage %.0f%%", frac*100), storageOnly(frac), Options{}})
	}
	for i := 0; i <= 10; i++ {
		frac := float64(i) / 10
		grid = append(grid, sweepCase{fmt.Sprintf("capacity %.0f%%", frac*100), capacityOnly(frac), Options{}})
	}
	probeEnv := *env
	probeEnv.Budgets = capacityOnly(0.5)
	probe, _, err := Plan(&probeEnv, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.9, 0.7, 0.5} {
		b := capacityOnly(0.5)
		b.RepoCapacity = units.ReqPerSec(float64(model.RepoLoad(&probeEnv, probe)) * frac)
		grid = append(grid, sweepCase{fmt.Sprintf("repository %.0f%%", frac*100), b, Options{}})
	}
	constrained := model.FullBudgets(w).Scale(w, 0.5, 0.7)
	grid = append(grid,
		sweepCase{"refine", constrained, Options{Refine: true}},
		sweepCase{"no re-partition", constrained, Options{NoRepartition: true}})
	return grid
}

// TestPartitionedPlanMatchesPlan holds the copy path to core.Plan: one
// Partitioned plans the whole grid at Workers 1 and 4, and every point must
// equal a from-scratch core.Plan bit for bit — placement, Result (D, D1, D2,
// site and off-loading statistics, the model report) and message log — and
// leave a planner whose caches agree with the model. The first point is
// planned again last, so a plan that leaked state into the shared base
// fails. A foreign workload, foreign estimates or a mismatched
// UnsortedPartition are refused.
func TestPartitionedPlanMatchesPlan(t *testing.T) {
	base := genEnv(t, 424242)
	grid := sweepGrid(t, base)
	grid = append(grid, grid[0])
	offloaded := false
	for _, workers := range []int{1, 4} {
		pt := Partition(base, Options{Workers: workers})
		for _, c := range grid {
			env := *base
			env.Budgets = c.b
			opts := c.opts
			opts.Workers = workers
			var wantLog, gotLog strings.Builder
			opts.MessageLog = &wantLog
			wantP, want, err := Plan(&env, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.MessageLog = &gotLog
			gotP, got, err := pt.Plan(&env, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("workers=%d %s", workers, c.label)
			if !gotP.Equal(wantP) {
				t.Errorf("%s: placement differs from core.Plan's", label)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: result %+v, core.Plan gave %+v", label, got, want)
			}
			if gotLog.String() != wantLog.String() {
				t.Errorf("%s: message log differs:\n%s--- core.Plan\n%s", label, gotLog.String(), wantLog.String())
			}
			offloaded = offloaded || want.Offload.Ran

			opts.MessageLog = nil
			pl := pt.pl.copyFor(&env)
			if _, _, err := pl.finish(opts); err != nil {
				t.Fatal(err)
			}
			if err := pl.VerifyConsistency(); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
	}
	if !offloaded {
		t.Fatal("no grid point ran the off-loading negotiation")
	}

	pt := Partition(base, Options{Workers: 1})
	foreignW := *base
	foreignW.W = genEnv(t, 424242).W
	foreignEst := *base
	est := *base.Est
	foreignEst.Est = &est
	for _, c := range []struct {
		label string
		env   *model.Env
		opts  Options
	}{
		{"foreign workload", &foreignW, Options{}},
		{"foreign estimates", &foreignEst, Options{}},
		{"unsorted partition", base, Options{UnsortedPartition: true}},
	} {
		if _, _, err := pt.Plan(c.env, c.opts); err == nil {
			t.Errorf("%s: planned, want an error", c.label)
		}
	}
}

// TestPartitionedPlanConcurrent plans four budgets from one Partitioned on
// four goroutines at once (the race stage runs it under -race); each must
// equal its sequential core.Plan.
func TestPartitionedPlanConcurrent(t *testing.T) {
	base := genEnv(t, 75)
	pt := Partition(base, Options{Workers: 1})
	fracs := []float64{0.2, 0.4, 0.6, 0.8}
	envs := make([]model.Env, len(fracs))
	got := make([]*model.Placement, len(fracs))
	gotRes := make([]*Result, len(fracs))
	var wg sync.WaitGroup
	for n, frac := range fracs {
		envs[n] = *base
		envs[n].Budgets = base.Budgets.Scale(base.W, frac, 1-frac/2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[n], gotRes[n], err = pt.Plan(&envs[n], Options{Workers: 2, Refine: true}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for n := range fracs {
		want, wantRes, err := Plan(&envs[n], Options{Workers: 1, Refine: true})
		if err != nil {
			t.Fatal(err)
		}
		if !got[n].Equal(want) || !reflect.DeepEqual(gotRes[n], wantRes) {
			t.Errorf("storage %.0f%%: the concurrent plan differs from core.Plan's", fracs[n]*100)
		}
	}
}

// sweepWalk orders sweepGrid's points from the loosest budget down — storage
// 100 → 10 %, capacity 100 → 50 %, the repository caps at 50 %, capacity
// 40 → 0 % — and adds a point that cuts storage to 50 % at capacity 20 %,
// where processing restoration has flipped, so the walk both continues and
// restarts. The refine and re-partitioning points close it.
func sweepWalk(t *testing.T, env *model.Env) []sweepCase {
	t.Helper()
	grid := sweepGrid(t, env)
	storage, capacity, repo, rest := grid[:10], grid[10:21], grid[21:24], grid[24:]
	var walk []sweepCase
	for n := len(storage) - 1; n >= 0; n-- {
		walk = append(walk, storage[n])
	}
	for n := len(capacity) - 1; n >= 0; n-- {
		walk = append(walk, capacity[n])
		switch n {
		case 5:
			walk = append(walk, repo...)
		case 2:
			cut := capacity[n].b.Scale(env.W, 0.5, 1)
			cut.SiteCapacity = capacity[n].b.SiteCapacity
			walk = append(walk, sweepCase{"storage 50% at capacity 20%", cut, Options{}})
		}
	}
	return append(walk, rest...)
}

// TestSweepMatchesPlan holds the carried restoration to core.Plan: one Sweep
// walks the grid from the loosest budget down, and another walks it back
// up (every looser point restarts), at Workers 1 and 4. Every point must
// equal core.Plan bit for bit — placement, Result and message log — and
// leave a carried planner whose caches agree with the model. The walk down
// must continue the carried planner at most points and restart it where a
// budget loosens or a flipped site loses storage.
func TestSweepMatchesPlan(t *testing.T) {
	base := genEnv(t, 424242)
	down := sweepWalk(t, base)
	up := slices.Clone(down)
	slices.Reverse(up)
	for _, workers := range []int{1, 4} {
		pt := Partition(base, Options{Workers: workers})
		for _, dir := range []struct {
			name string
			walk []sweepCase
		}{{"down", down}, {"up", up}} {
			sw := pt.Sweep()
			continued := 0
			for _, c := range dir.walk {
				env := *base
				env.Budgets = c.b
				opts := c.opts
				opts.Workers = workers
				var wantLog, gotLog strings.Builder
				opts.MessageLog = &wantLog
				wantP, want, err := Plan(&env, opts)
				if err != nil {
					t.Fatal(err)
				}
				carried := sw.pl
				opts.MessageLog = &gotLog
				gotP, got, err := sw.Plan(&env, opts)
				if err != nil {
					t.Fatal(err)
				}
				if sw.pl == carried {
					continued++
				}
				label := fmt.Sprintf("workers=%d %s %s", workers, dir.name, c.label)
				if !gotP.Equal(wantP) {
					t.Errorf("%s: placement differs from core.Plan's", label)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: result %+v, core.Plan gave %+v", label, got, want)
				}
				if gotLog.String() != wantLog.String() {
					t.Errorf("%s: message log differs:\n%s--- core.Plan\n%s", label, gotLog.String(), wantLog.String())
				}
				if err := sw.pl.VerifyConsistency(); err != nil {
					t.Errorf("%s: carried planner: %v", label, err)
				}
			}
			// Down, only the first point, capacity 100 % and 10 % (storage
			// loosens), the storage cut, the refine point (capacity loosens)
			// and the re-partitioning switch restart. Up, only the points
			// sharing the repository points' site budgets continue: two caps
			// and capacity 50 %.
			want := 3
			if dir.name == "down" {
				want = len(dir.walk) - 6
			}
			if continued != want {
				t.Errorf("workers=%d %s: %d points continued the carried planner, want %d", workers, dir.name, continued, want)
			}
		}
	}
}
