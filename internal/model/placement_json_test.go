package model

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

func TestPlacementJSONRoundTrip(t *testing.T) {
	w := workload.MustGenerate(workload.SmallConfig(), 71)
	p := AllLocal(w)
	// Unmark a few entries so the round trip covers mixed rows.
	p.SetCompLocal(0, 0, false)
	if len(w.Pages[1].Compulsory) > 1 {
		p.SetCompLocal(1, 1, false)
	}

	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlacement(w, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(got) {
		t.Error("round trip lost information")
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementJSONRejectsWrongWorkload(t *testing.T) {
	w1 := workload.MustGenerate(workload.SmallConfig(), 72)
	w2 := workload.MustGenerate(workload.SmallConfig(), 73) // different shape
	p := AllLocal(w1)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if w1.NumPages() != w2.NumPages() {
		if _, err := DecodePlacement(w2, &buf); err == nil {
			t.Error("shape mismatch accepted")
		}
	}
}

func TestPlacementJSONRejectsCorruption(t *testing.T) {
	w := workload.MustGenerate(workload.SmallConfig(), 74)
	if _, err := DecodePlacement(w, strings.NewReader("{broken")); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Dangling local mark: object marked local but not stored.
	p := AllLocal(w)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	// Empty every stored list: all marks dangle.
	s = strings.Replace(s, `"stored":[[`, `"stored":[[999999`, 1)
	if _, err := DecodePlacement(w, strings.NewReader(s)); err == nil {
		t.Error("out-of-range stored object accepted")
	}
}

func TestPlacementSaveLoadFile(t *testing.T) {
	w := workload.MustGenerate(workload.SmallConfig(), 75)
	p := AllLocal(w)
	path := t.TempDir() + "/placement.json"
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlacementFile(w, path)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(got) {
		t.Error("file round trip lost information")
	}
	if _, err := LoadPlacementFile(w, t.TempDir()+"/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestSaveFileReportsFullDevice saves to a device that accepts the open and
// fails every write. The placement is small enough to sit in the write
// buffer until the final flush, so only the flush can report the failure.
func TestSaveFileReportsFullDevice(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	_, w := tinyEnv(t)
	if err := AllLocal(w).SaveFile("/dev/full"); err == nil {
		t.Fatal("SaveFile to a full device returned nil")
	}
}

func TestPlacementEqual(t *testing.T) {
	w := workload.MustGenerate(workload.SmallConfig(), 76)
	a, b := AllLocal(w), AllLocal(w)
	if !a.Equal(b) {
		t.Error("identical placements not equal")
	}
	b.SetCompLocal(0, 0, false)
	if a.Equal(b) {
		t.Error("different marks reported equal")
	}
	c := AllLocal(w)
	c.Unstore(0, w.Sites[0].Objects[0])
	// c may violate invariants if the object was marked; Equal only
	// compares raw state, which is what we want here.
	if a.Equal(c) && a.StoredSet(0).Equal(c.StoredSet(0)) {
		t.Error("different stores reported equal")
	}
	// The slabs compare whole: one optional mark anywhere, a row moved from
	// one page to its neighbour (same slab length, different offsets), and a
	// workload of another shape are all unequal; a clone is equal.
	d := a.Clone()
	if !a.Equal(d) {
		t.Error("clone not equal to its source")
	}
	last := workload.PageID(w.NumPages() - 1)
	for last > 0 && len(w.Pages[last].Optional) == 0 {
		last--
	}
	d.SetOptLocal(last, len(w.Pages[last].Optional)-1, false)
	if a.Equal(d) {
		t.Error("different optional marks reported equal")
	}
	// A fresh literal, not w.Derive(): it edits compulsory lists, which a
	// derived copy must not.
	moved := &workload.Workload{Config: w.Config, Seed: w.Seed, Objects: w.Objects, Pages: slices.Clone(w.Pages), Sites: w.Sites}
	moved.Pages[0].Compulsory, moved.Pages[1].Compulsory = append(slices.Clone(w.Pages[0].Compulsory), w.Pages[1].Compulsory...), nil
	if a.Equal(AllLocal(moved)) {
		t.Error("same slab under different row offsets reported equal")
	}
	cfg := workload.SmallConfig()
	cfg.Sites++
	if a.Equal(AllLocal(workload.MustGenerate(cfg, 76))) {
		t.Error("placements over differently shaped workloads reported equal")
	}
}

func TestDiff(t *testing.T) {
	w := workload.MustGenerate(workload.SmallConfig(), 77)
	a := AllRemote(w)
	b := AllLocal(w)
	rep, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalAddedBytes() <= 0 || rep.TotalRemovedBytes() != 0 {
		t.Errorf("remote→local diff: added %v removed %v", rep.TotalAddedBytes(), rep.TotalRemovedBytes())
	}
	// Added bytes = sum of per-site stored MO bytes under all-local.
	var want units.ByteSize
	for i := range w.Sites {
		want += b.StoredMOBytes(workload.SiteID(i))
	}
	if rep.TotalAddedBytes() != want {
		t.Errorf("added bytes %v, want %v", rep.TotalAddedBytes(), want)
	}
	// Every compulsory and optional mark flips to local.
	flips := 0
	for _, d := range rep.Sites {
		flips += d.FlippedLocal
		if d.FlippedRemote != 0 {
			t.Errorf("site %d: unexpected remote flips", d.Site)
		}
	}
	wantFlips := 0
	for j := range w.Pages {
		wantFlips += len(w.Pages[j].Compulsory) + len(w.Pages[j].Optional)
	}
	if flips != wantFlips {
		t.Errorf("flips %d, want %d", flips, wantFlips)
	}

	// Reverse direction swaps added/removed.
	rev, err := Diff(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if rev.TotalRemovedBytes() != rep.TotalAddedBytes() {
		t.Error("reverse diff asymmetric")
	}
	// Identity diff is empty.
	same, err := Diff(b, b)
	if err != nil {
		t.Fatal(err)
	}
	if same.TotalAddedBytes() != 0 || same.TotalRemovedBytes() != 0 {
		t.Error("self-diff not empty")
	}

	var sb strings.Builder
	if err := rep.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "total migration") {
		t.Error("report incomplete")
	}
}

func TestDiffRejectsShapeMismatch(t *testing.T) {
	w1 := workload.MustGenerate(workload.SmallConfig(), 78)
	w2 := workload.MustGenerate(workload.SmallConfig(), 79)
	if w1.NumPages() != w2.NumPages() {
		if _, err := Diff(AllLocal(w1), AllLocal(w2)); err == nil {
			t.Error("shape mismatch accepted")
		}
	}
}
