package repair

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/workload"
)

// plannedEnv plans w under the full budgets scaled to storage and capacity,
// over estimates drawn from estSeed, with the paper pipeline at one worker.
func plannedEnv(tb testing.TB, w *workload.Workload, estSeed uint64, storage, capacity float64) (*model.Env, *model.Placement) {
	tb.Helper()
	est, err := netsim.DrawEstimates(netsim.DefaultConfig(), w.NumSites(), rng.New(estSeed))
	if err != nil {
		tb.Fatal(err)
	}
	env, err := model.NewEnv(w, est, model.FullBudgets(w).Scale(w, storage, capacity))
	if err != nil {
		tb.Fatal(err)
	}
	p, _, err := core.Plan(env, core.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return env, p
}

// table1Workload is the Table-1 workload BenchmarkRepairPlanTable1 and the
// benchmark's control-cycles repair: per-site page and pool counts pinned
// at the midpoints of their ranges, seed 1.
func table1Workload() *workload.Workload {
	cfg := workload.DefaultConfig()
	cfg.PagesPerSiteMin = (cfg.PagesPerSiteMin + cfg.PagesPerSiteMax) / 2
	cfg.PagesPerSiteMax = cfg.PagesPerSiteMin
	cfg.ObjectsPerSite = (cfg.ObjectsPerSite + cfg.ObjectsPerMax) / 2
	cfg.ObjectsPerMax = cfg.ObjectsPerSite
	return workload.MustGenerate(cfg, 1)
}

// hashRepair folds one repair plan into h: the bytes of Plan.Encode, then
// the bit patterns of the three predicted objectives (Encode renders them
// in decimal, which can hide a last-bit change).
func hashRepair(t *testing.T, h hash.Hash, env *model.Env, p *model.Placement, down []workload.SiteID) {
	t.Helper()
	rp, err := Compute(env, p, down, Options{Workers: 1})
	if err != nil {
		t.Fatalf("down %v: %v", down, err)
	}
	b, err := rp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	for _, d := range []float64{rp.Delta.DHealthy, rp.Delta.DBefore, rp.Delta.DAfter} {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(d)))
	}
}

// TestGoldenRepairPlans pins the bytes of repair plans: per budget case, the
// SHA-256 over every single-site outage (and, at small scale, one two-site
// outage) of each plan's encoding and objective bits. The determinism
// property compares Compute with itself across worker counts; this test
// compares it with the plans it produced when the hashes were taken, so a
// change that moves every plan alike fails here.
func TestGoldenRepairPlans(t *testing.T) {
	small, table1 := workload.MustGenerate(workload.SmallConfig(), 42), table1Workload()
	cases := []struct {
		name              string
		w                 *workload.Workload
		estSeed           uint64
		storage, capacity float64
		pair              bool
		want              string
	}{
		{"small 20% storage 20% capacity", small, 42, 0.2, 0.2, true,
			"bfd467d291986de4d74a85ffd361138a2fc00b26822e29b7dc6f79b00652fa2e"},
		{"small 20% storage 100% capacity", small, 42, 0.2, 1, true,
			"03e360797362007b5c689c96f95ca7c3135b0e04f7d71320822c18b031516f42"},
		{"small 50% storage 20% capacity", small, 42, 0.5, 0.2, true,
			"41b632a323eea1d92bd89c213a2f18cbd8975e54ece41d0b657ffd356b26e089"},
		{"small 50% storage 100% capacity", small, 42, 0.5, 1, true,
			"0624bf687c08b35c84cd368a2ca655ef1c8595f51673f7a52fbdda1688ac71a5"},
		{"small 100% storage 20% capacity", small, 42, 1, 0.2, true,
			"f4db161c5c218f39b41605efcd59785b03b999a150aa9fb411c377fbcfa7d3fe"},
		{"small 100% storage 100% capacity", small, 42, 1, 1, true,
			"6ca2b2def9eef3a8068579e16c8051e5b2b62c04779cd7f0e1eab60e442e16e1"},
		{"table1 50% storage", table1, 2000, 0.5, 1, false,
			"0a01697d17af764d6cc520ff4258c2d9c3bc300a03b1fd710d6e3e557d27c942"},
		{"table1 100% storage", table1, 2000, 1, 1, false,
			"44d4d0b1af77a34aabe9d44e677a7d89b3190c7cf67ead31a26db5538bf66ce4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			env, p := plannedEnv(t, c.w, c.estSeed, c.storage, c.capacity)
			h := sha256.New()
			for i := range workload.SiteID(c.w.NumSites()) {
				hashRepair(t, h, env, p, []workload.SiteID{i})
			}
			if c.pair {
				hashRepair(t, h, env, p, []workload.SiteID{2, 0})
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.want {
				t.Errorf("sha256 = %s, want %s (repair plans changed)", got, c.want)
			}
		})
	}
}
