package experiments

import (
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

func TestAblations(t *testing.T) {
	res, err := Ablations(tiny())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, row := range res.Rows {
		byName[row.Name] = row
	}
	for _, want := range []string{
		"Proposed", "Proposed (unsorted PARTITION)", "Proposed @40% storage",
		"No re-partition @40% storage", "Refined @40% storage",
		"HalfSplit", "SizeThreshold(500K)", "Local",
	} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing variant %q", want)
		}
	}
	// The full algorithm must beat every naive split on the cost model.
	if byName["Proposed"].DModel > byName["HalfSplit"].DModel {
		t.Errorf("Proposed D %.0f worse than HalfSplit %.0f", byName["Proposed"].DModel, byName["HalfSplit"].DModel)
	}
	if byName["Proposed"].DModel > byName["SizeThreshold(500K)"].DModel {
		t.Error("Proposed worse than SizeThreshold on the model")
	}
	// Sorted PARTITION must not lose to unsorted on the model objective.
	if byName["Proposed"].DModel > byName["Proposed (unsorted PARTITION)"].DModel*1.001 {
		t.Errorf("sorted PARTITION (D=%.0f) worse than unsorted (D=%.0f)",
			byName["Proposed"].DModel, byName["Proposed (unsorted PARTITION)"].DModel)
	}
	// Re-partition must help (or at least not hurt) at tight storage.
	if byName["Proposed @40% storage"].DModel > byName["No re-partition @40% storage"].DModel*1.001 {
		t.Errorf("re-partition hurt: %.0f vs %.0f",
			byName["Proposed @40% storage"].DModel, byName["No re-partition @40% storage"].DModel)
	}
	// The refinement extension must not make the model objective worse.
	if byName["Refined @40% storage"].DModel > byName["Proposed @40% storage"].DModel*1.001 {
		t.Errorf("refinement hurt the objective: %.0f vs %.0f",
			byName["Refined @40% storage"].DModel, byName["Proposed @40% storage"].DModel)
	}

	var sb strings.Builder
	if err := res.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "variant") || !strings.Contains(sb.String(), "Proposed") {
		t.Error("table rendering incomplete")
	}
}

func TestDrift(t *testing.T) {
	fig, err := Drift(tiny())
	if err != nil {
		t.Fatal(err)
	}
	stale := seriesByName(fig, "Stale plan")
	if stale == nil || len(stale.X) != len(driftGrid) {
		t.Fatal("missing or mis-sized stale series")
	}
	byX := map[float64]float64{}
	for i, x := range stale.X {
		byX[x] = stale.Y[i]
	}
	// With no drift the stale plan IS the fresh plan: ≈0.
	if byX[0] < -1 || byX[0] > 1 {
		t.Errorf("0%% drift: stale plan %+.2f%%, want ≈0", byX[0])
	}
	// Full rotation must hurt the stale plan more than no rotation.
	if byX[100] <= byX[0] {
		t.Errorf("stale plan not degraded by full rotation: %+.2f%% vs %+.2f%%", byX[100], byX[0])
	}
}

func TestRedirectStudy(t *testing.T) {
	fig, err := RedirectStudy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{" (Table-1 rates)", " (100× rates)"} {
		lru := seriesByName(fig, "LRU+redirect"+suffix)
		if lru == nil || len(lru.X) != len(redirectGrid) {
			t.Fatalf("missing LRU series%s", suffix)
		}
		// The penalty must worsen the redirect-based scheme.
		if lru.Y[len(lru.Y)-1] <= lru.Y[0] {
			t.Errorf("%s: redirection penalty did not hurt: %v -> %v", suffix, lru.Y[0], lru.Y[len(lru.Y)-1])
		}
		ours := seriesByName(fig, "Proposed"+suffix)
		for i := 1; i < len(ours.Y); i++ {
			if ours.Y[i] != ours.Y[0] {
				t.Errorf("%s: proposed reference should be flat, got %v vs %v", suffix, ours.Y[i], ours.Y[0])
			}
		}
	}
	// At broadband rates the per-GET penalty must matter far more than at
	// Table-1 rates (the transfer times no longer drown it).
	slow := seriesByName(fig, "LRU+redirect (Table-1 rates)")
	fast := seriesByName(fig, "LRU+redirect (100× rates)")
	slowRise := slow.Y[len(slow.Y)-1] - slow.Y[0]
	fastRise := fast.Y[len(fast.Y)-1] - fast.Y[0]
	if fastRise < 2*slowRise {
		t.Errorf("fast-network penalty rise (%.2f) not ≫ slow-network rise (%.2f)", fastRise, slowRise)
	}
}

func TestSensitivity(t *testing.T) {
	fig, err := Sensitivity(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Proposed", "LRU", "Local"} {
		s := seriesByName(fig, name)
		if s == nil || len(s.X) != len(severityGrid) {
			t.Fatalf("missing or mis-sized series %q", name)
		}
	}
	// The gap must survive at every severity: LRU stays above the
	// proposed policy (which is the 0-line by construction).
	lru := seriesByName(fig, "LRU")
	for i, y := range lru.Y {
		if y < -3 {
			t.Errorf("at severity %v LRU beat the proposed policy by %.1f%%", lru.X[i], -y)
		}
	}
}

func TestThresholdStudy(t *testing.T) {
	fig, err := ThresholdStudy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	dyn := seriesByName(fig, "Threshold dynamic")
	ours := seriesByName(fig, "Proposed (static plan)")
	if dyn == nil || ours == nil || len(dyn.X) != len(thresholdGrid) {
		t.Fatal("missing series")
	}
	// The static plan's level is flat; the dynamic scheme's performance
	// varies with the threshold (the Section-6 critique) and should not
	// beat the plan at any threshold by a clear margin.
	for i := range dyn.X {
		if ours.Y[i] > dyn.Y[i]+5 {
			t.Errorf("at threshold %v the static plan (%.1f%%) clearly lost to dynamic (%.1f%%)",
				dyn.X[i], ours.Y[i], dyn.Y[i])
		}
	}
	// Sensitivity to the knob: the best and worst threshold should differ
	// noticeably.
	min, max := dyn.Y[0], dyn.Y[0]
	for _, y := range dyn.Y {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	if max-min < 1 {
		t.Logf("note: dynamic scheme barely sensitive to threshold here (%.1f-%.1f)", min, max)
	}
}

func TestFigure1ShapeUnderZipf(t *testing.T) {
	// Robustness: the paper's orderings should not hinge on the two-class
	// popularity model.
	opts := tiny()
	opts.Workload.Popularity = workload.PopularityZipf
	opts.Workload.ZipfS = 0.8
	fig, err := Figure1(opts)
	if err != nil {
		t.Fatal(err)
	}
	ours := seriesByName(fig, "Proposed")
	lru := seriesByName(fig, "LRU")
	for i := range ours.Y {
		if ours.Y[i] > lru.Y[i]+2 {
			t.Errorf("under Zipf at %v%% storage proposed (%.1f%%) lost to LRU (%.1f%%)",
				ours.X[i], ours.Y[i], lru.Y[i])
		}
	}
}

func TestQueueingStudy(t *testing.T) {
	fig, err := QueueingStudy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	aware := seriesByName(fig, "Eq.8-aware plan")
	ignorant := seriesByName(fig, "Capacity-ignorant plan")
	if aware == nil || ignorant == nil || len(aware.X) != len(queueingGrid) {
		t.Fatal("missing series")
	}
	// At the tightest capacity the ignorant plan must pay clearly more
	// queueing delay than the aware one, whose overhead stays small.
	if ignorant.Y[0] <= aware.Y[0] {
		t.Errorf("at %v%% capacity the ignorant plan's overhead (%.2f%%) not above the aware one's (%.2f%%)",
			aware.X[0], ignorant.Y[0], aware.Y[0])
	}
	for i, y := range aware.Y {
		if y > 5 {
			t.Errorf("aware plan's queueing overhead %.2f%% at %v%% capacity — Eq. 8 should bound the backlog", y, aware.X[i])
		}
	}
	// The ignorant plan's overhead grows as capacity shrinks.
	last := len(ignorant.Y) - 1
	if ignorant.Y[0] <= ignorant.Y[last] {
		t.Errorf("ignorant overhead not increasing as capacity drops: %.2f%% -> %.2f%%",
			ignorant.Y[last], ignorant.Y[0])
	}
}

func TestPeriodStudy(t *testing.T) {
	opts := tiny()
	opts.Runs = 1
	opts.RequestsPerSite = 80
	fig, err := PeriodStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := seriesByName(fig, "RT vs oracle")
	churn := seriesByName(fig, "Churn (GB moved)")
	if rt == nil || churn == nil || len(rt.X) != len(periodGrid) {
		t.Fatal("missing series")
	}
	byX := func(s *stats.Series) map[float64]float64 {
		m := map[float64]float64{}
		for i, x := range s.X {
			m[x] = s.Y[i]
		}
		return m
	}
	rtBy, churnBy := byX(rt), byX(churn)
	// Period 1 IS the oracle: zero RT penalty, maximal churn.
	if rtBy[1] < -0.5 || rtBy[1] > 0.5 {
		t.Errorf("period-1 RT penalty %.2f%%, want ≈0", rtBy[1])
	}
	// Never re-planning must cost more RT than period 1 and move no bytes.
	never := float64(periodEpochs)
	if rtBy[never] <= rtBy[1] {
		t.Errorf("never-replan RT penalty (%.2f%%) not above period-1 (%.2f%%)", rtBy[never], rtBy[1])
	}
	if churnBy[never] != 0 {
		t.Errorf("never-replan churn %.3f GB, want 0", churnBy[never])
	}
	// Churn decreases with the period.
	if churnBy[1] <= churnBy[6] {
		t.Errorf("churn not decreasing with period: %.3f vs %.3f GB", churnBy[1], churnBy[6])
	}
}

func TestWeightsStudy(t *testing.T) {
	fig, err := WeightsStudy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	page := seriesByName(fig, "Page RT")
	if page == nil || len(page.X) != len(weightGrid) {
		t.Fatal("missing page series")
	}
	byX := map[float64]float64{}
	for i, x := range page.X {
		byX[x] = page.Y[i]
	}
	// Weighting optional traffic more can only hold page RT steady or
	// worsen it (the planner diverts storage to optional objects):
	// monotone within noise between the extremes.
	if byX[4] < byX[0]-2 {
		t.Errorf("page RT improved when optional weight grew: %v -> %v", byX[0], byX[4])
	}
	// The optional series exists when the workload drew optional pages.
	if opt := seriesByName(fig, "Optional RT"); opt != nil && len(opt.Y) > 0 {
		oByX := map[float64]float64{}
		for i, x := range opt.X {
			oByX[x] = opt.Y[i]
		}
		if oByX[4] > oByX[0]+2 {
			t.Errorf("optional RT worsened as its weight grew: %v -> %v", oByX[0], oByX[4])
		}
	}
}
