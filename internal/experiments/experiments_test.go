package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/stats"
)

// tiny returns options small enough for unit tests: 2 runs, reduced
// workload, few requests.
func tiny() Options {
	o := Quick()
	o.Runs = 2
	o.RequestsPerSite = 120
	return o
}

func seriesByName(f *stats.Figure, name string) *stats.Series {
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func TestOptionsValidate(t *testing.T) {
	o := Quick()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	o.Runs = 0
	if err := o.Validate(); err == nil {
		t.Error("zero runs accepted")
	}
	o = Quick()
	o.Workload.Sites = 0
	if err := o.Validate(); err == nil {
		t.Error("bad workload config accepted")
	}
}

func TestFigure1Shape(t *testing.T) {
	fig, err := Figure1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Proposed", "LRU", "Local", "Remote"} {
		s := seriesByName(fig, name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		if len(s.X) != len(storageGrid) {
			t.Errorf("%s has %d points, want %d", name, len(s.X), len(storageGrid))
		}
	}
	ours := seriesByName(fig, "Proposed")
	lru := seriesByName(fig, "LRU")
	remote := seriesByName(fig, "Remote")

	// At 100 % storage the proposed policy is the unconstrained baseline:
	// its relative increase must be ≈0 (same plan, same traffic).
	last := ours.Y[len(ours.Y)-1]
	if last < -1 || last > 1 {
		t.Errorf("proposed at 100%% storage = %+.2f%%, want ≈0", last)
	}
	// The paper's headline orderings.
	for i := range ours.Y {
		if ours.Y[i] > lru.Y[i]+2 { // small tolerance for run noise
			t.Errorf("at %v%% storage proposed (%.1f%%) worse than LRU (%.1f%%)",
				ours.X[i], ours.Y[i], lru.Y[i])
		}
	}
	if remote.Y[0] < 100 {
		t.Errorf("Remote reference = %+.1f%%, expected ≫ +100%%", remote.Y[0])
	}
	// Monotone-ish: less storage must not help the proposed policy.
	if ours.Y[0] < last-1 {
		t.Errorf("proposed at 10%% storage (%.1f%%) better than at 100%% (%.1f%%)", ours.Y[0], last)
	}
}

func TestFigure2Shape(t *testing.T) {
	fig, err := Figure2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	s := seriesByName(fig, "Proposed")
	if s == nil {
		t.Fatal("missing Proposed series")
	}
	if len(s.X) != len(capacityGrid)+1 { // +1 for the 0 % anchor
		t.Fatalf("%d points, want %d", len(s.X), len(capacityGrid)+1)
	}
	byX := map[float64]float64{}
	for i, x := range s.X {
		byX[x] = s.Y[i]
	}
	// Full capacity ≈ unconstrained; zero capacity is the worst point.
	if byX[100] > 5 {
		t.Errorf("at 100%% capacity: %+.1f%%, want ≈0", byX[100])
	}
	if byX[0] <= byX[100]+50 {
		t.Errorf("at 0%% capacity (%.1f%%) not dramatically worse than 100%% (%.1f%%)", byX[0], byX[100])
	}
	// The curve must be non-increasing in capacity (within noise).
	if byX[30] < byX[80]-2 {
		t.Errorf("more capacity hurt: 30%%→%.1f%%, 80%%→%.1f%%", byX[30], byX[80])
	}
}

// TestNarrationIsAFunctionOfTheSeed: the harness reads no wall clock, so at
// Workers 1 (one run at a time, lines in order) two same-seed Figure 2
// sweeps narrate byte for byte alike.
func TestNarrationIsAFunctionOfTheSeed(t *testing.T) {
	narrate := func() string {
		var sb strings.Builder
		o := tiny()
		o.Workers = 1
		o.Progress = func(format string, args ...interface{}) { fmt.Fprintf(&sb, format+"\n", args...) }
		if _, err := Figure2(o); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	first, second := narrate(), narrate()
	if want := tiny().Runs * (1 + len(capacityGrid)); strings.Count(first, "\n") != want {
		t.Fatalf("%d narration lines, want %d:\n%s", strings.Count(first, "\n"), want, first)
	}
	if first != second {
		t.Errorf("same seed, different narration:\n%s\nvs\n%s", first, second)
	}
}

func TestFigure3Shape(t *testing.T) {
	fig, err := Figure3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C(R)=90%", "C(R)=70%", "C(R)=50%"} {
		s := seriesByName(fig, name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		if len(s.X) != len(capacityGrid) {
			t.Errorf("%s has %d points", name, len(s.X))
		}
	}
	// A tighter repository must not help: at equal local capacity the 50 %
	// series sits at or above the 90 % one (within noise).
	s90, s50 := seriesByName(fig, "C(R)=90%"), seriesByName(fig, "C(R)=50%")
	for i := range s90.X {
		if s50.Y[i] < s90.Y[i]-3 {
			t.Errorf("at local %v%%: C(R)=50%% (%.1f%%) better than C(R)=90%% (%.1f%%)",
				s90.X[i], s50.Y[i], s90.Y[i])
		}
	}
}

func TestTable1Quick(t *testing.T) {
	sum, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sites != 4 {
		t.Errorf("sites = %d", sum.Sites)
	}
	var sb strings.Builder
	if err := sum.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Hot pages") {
		t.Error("summary incomplete")
	}
}

func TestStorageEquivalence(t *testing.T) {
	res, err := StorageEquivalence(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fraction <= 0 || res.Fraction > 1 {
		t.Errorf("fraction = %v", res.Fraction)
	}
	// The proposed policy needs strictly less than full storage to match
	// LRU at 100 % — the §5.2 claim (≈65 % in the paper; exact value
	// depends on scale).
	if res.Fraction > 0.95 {
		t.Errorf("equivalence fraction %.0f%% — no storage savings found", res.Fraction*100)
	}
	var sb strings.Builder
	if err := res.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "equivalence fraction") {
		t.Error("report incomplete")
	}
}

func TestFigureTableRendering(t *testing.T) {
	fig, err := Figure2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var table, csv strings.Builder
	if err := fig.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if err := fig.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "Figure 2") || !strings.Contains(csv.String(), "Proposed") {
		t.Error("rendered outputs incomplete")
	}
}
