package policies

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func TestThresholdValidation(t *testing.T) {
	w := testWorkload(t)
	b := model.FullBudgets(w)
	if _, err := NewThreshold(w, b, 0, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	short := b
	short.Storage = short.Storage[:1]
	if _, err := NewThreshold(w, short, 2, 0); err == nil {
		t.Error("mis-sized budgets accepted")
	}
}

func TestThresholdReplicatesAfterN(t *testing.T) {
	w := testWorkload(t)
	pol, err := NewThreshold(w, model.FullBudgets(w), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pol.Name(), "Threshold(3)") {
		t.Errorf("name = %q", pol.Name())
	}
	j := workload.PageID(0)
	// Accesses 1 and 2: remote, no replica. Access 3: crosses the
	// threshold — still served remotely (replication is asynchronous) but
	// the replica now exists, so access 4 is local.
	for n := 1; n <= 3; n++ {
		if pol.serve(compRef(w, j, 0)) {
			t.Fatalf("access %d served locally before replication", n)
		}
	}
	if !pol.serve(compRef(w, j, 0)) {
		t.Fatal("access after replication still remote")
	}
	if pol.Replicas(w.Pages[0].Site) != 1 {
		t.Errorf("replicas = %d", pol.Replicas(w.Pages[0].Site))
	}
}

func TestThresholdOneIsCacheOnFirstTouch(t *testing.T) {
	w := testWorkload(t)
	pol, err := NewThreshold(w, model.FullBudgets(w), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	j := workload.PageID(0)
	if pol.serve(compRef(w, j, 0)) {
		t.Fatal("first touch served locally")
	}
	if !pol.serve(compRef(w, j, 0)) {
		t.Fatal("second touch not local with threshold 1")
	}
}

func TestThresholdRespectsStorage(t *testing.T) {
	w := testWorkload(t)
	b := model.FullBudgets(w).Scale(w, 0.02, 1) // tiny replica budget
	pol, err := NewThreshold(w, b, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Touch many objects repeatedly: replicas must stay within budget.
	for pass := 0; pass < 2; pass++ {
		for _, pid := range w.Sites[0].Pages {
			for idx := range w.Pages[pid].Compulsory {
				pol.serve(compRef(w, pid, idx))
			}
		}
	}
	// The cache enforces its byte budget internally; replica count must be
	// far below the total objects touched.
	touched := map[workload.ObjectID]bool{}
	for _, pid := range w.Sites[0].Pages {
		for _, k := range w.Pages[pid].Compulsory {
			touched[k] = true
		}
	}
	if pol.Replicas(0) >= len(touched) {
		t.Errorf("replicas %d not bounded by storage (touched %d)", pol.Replicas(0), len(touched))
	}
}

func TestThresholdDecay(t *testing.T) {
	w := testWorkload(t)
	pol, err := NewThreshold(w, model.FullBudgets(w), 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	j := workload.PageID(0)
	// 50 accesses with decay every 10: the counter keeps halving, so the
	// threshold of 100 is never crossed.
	for n := 0; n < 50; n++ {
		if pol.serve(compRef(w, j, 0)) {
			t.Fatal("decayed counter crossed a high threshold")
		}
	}
	if pol.Replicas(w.Pages[0].Site) != 0 {
		t.Error("replica created despite decay")
	}
}

func TestThresholdOptionalPath(t *testing.T) {
	w := testWorkload(t)
	var pid workload.PageID = -1
	for j := range w.Pages {
		if len(w.Pages[j].Optional) > 0 {
			pid = workload.PageID(j)
			break
		}
	}
	if pid < 0 {
		t.Skip("no optional pages drawn")
	}
	pol, err := NewThreshold(w, model.FullBudgets(w), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pol.OptLocal(pid, 0) {
		t.Fatal("first optional touch local")
	}
	if !pol.OptLocal(pid, 0) {
		t.Fatal("second optional touch not local")
	}
}
