package model

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// The reference cost model: one function per equation, each walking the
// page through CompLocal/OptLocal on its own. The per-page kernel must
// reproduce every one of them bit for bit, terms added in the same order.

func refPageLocalTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	pg := &e.W.Pages[j]
	est := e.Est.Sites[pg.Site]
	t := est.LocalOvhd + est.LocalRate.TransferTime(pg.HTMLSize)
	for idx, k := range pg.Compulsory {
		if p.CompLocal(j, idx) {
			t += est.LocalRate.TransferTime(e.W.ObjectSize(k))
		}
	}
	return t
}

func refPageRemoteTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	pg := &e.W.Pages[j]
	est := e.Est.Sites[pg.Site]
	var bytes units.ByteSize
	any := false
	for idx, k := range pg.Compulsory {
		if !p.CompLocal(j, idx) {
			bytes += e.W.ObjectSize(k)
			any = true
		}
	}
	if !any {
		return 0
	}
	return est.RepoOvhd + est.RepoRate.TransferTime(bytes)
}

func refPageTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	return units.MaxSeconds(refPageLocalTime(e, p, j), refPageRemoteTime(e, p, j))
}

func refPageOptionalTime(e *Env, p *Placement, j workload.PageID) units.Seconds {
	pg := &e.W.Pages[j]
	est := e.Est.Sites[pg.Site]
	var t units.Seconds
	for idx, l := range pg.Optional {
		var one units.Seconds
		if p.OptLocal(j, idx) {
			one = est.LocalOvhd + est.LocalRate.TransferTime(e.W.ObjectSize(l.Object))
		} else {
			one = est.RepoOvhd + est.RepoRate.TransferTime(e.W.ObjectSize(l.Object))
		}
		t += units.Seconds(l.Prob) * one
	}
	return t
}

func refD1(e *Env, p *Placement) float64 {
	sum := 0.0
	for j := range e.W.Pages {
		sum += float64(e.W.Pages[j].Freq) * float64(refPageTime(e, p, workload.PageID(j)))
	}
	return sum
}

func refD2(e *Env, p *Placement) float64 {
	sum := 0.0
	for j := range e.W.Pages {
		sum += float64(e.W.Pages[j].Freq) * float64(refPageOptionalTime(e, p, workload.PageID(j)))
	}
	return sum
}

func refPageLocalLoad(e *Env, p *Placement, j workload.PageID) units.ReqPerSec {
	pg := &e.W.Pages[j]
	perView := 1.0
	for idx := range pg.Compulsory {
		if p.CompLocal(j, idx) {
			perView++
		}
	}
	for idx, l := range pg.Optional {
		if p.OptLocal(j, idx) {
			perView += l.Prob
		}
	}
	return units.ReqPerSec(float64(pg.Freq) * perView)
}

func refPageRepoLoad(e *Env, p *Placement, j workload.PageID) units.ReqPerSec {
	pg := &e.W.Pages[j]
	perView := 0.0
	for idx := range pg.Compulsory {
		if !p.CompLocal(j, idx) {
			perView++
		}
	}
	for idx, l := range pg.Optional {
		if !p.OptLocal(j, idx) {
			perView += l.Prob
		}
	}
	return units.ReqPerSec(float64(pg.Freq) * perView)
}

func refSiteLoad(e *Env, p *Placement, i workload.SiteID, page func(*Env, *Placement, workload.PageID) units.ReqPerSec) units.ReqPerSec {
	var sum units.ReqPerSec
	for _, pid := range e.W.Sites[i].Pages {
		sum += page(e, p, pid)
	}
	return sum
}

func refRepoLoad(e *Env, p *Placement) units.ReqPerSec {
	var sum units.ReqPerSec
	for i := range e.W.Sites {
		sum += refSiteLoad(e, p, workload.SiteID(i), refPageRepoLoad)
	}
	return sum
}

func refEvaluate(e *Env, p *Placement) *Report {
	r := &Report{D1: refD1(e, p), D2: refD2(e, p), RepoLoad: refRepoLoad(e, p), RepoCap: e.Budgets.RepoCapacity}
	r.D = e.Alpha1*r.D1 + e.Alpha2*r.D2
	for i := range e.W.Sites {
		id := workload.SiteID(i)
		r.Sites = append(r.Sites, SiteReport{
			Site:         id,
			StorageUsed:  p.StorageUsed(id),
			StorageLimit: e.Budgets.Storage[i],
			Load:         refSiteLoad(e, p, id, refPageLocalLoad),
			Capacity:     e.Budgets.SiteCapacity[i],
		})
	}
	return r
}

// randomPlacement marks each reference local with probability frac, storing
// its object at the page's site.
func randomPlacement(w *workload.Workload, s *rng.Stream, frac float64) *Placement {
	p := NewPlacement(w)
	for j := range w.Pages {
		pg := &w.Pages[j]
		for idx, k := range pg.Compulsory {
			if s.Bool(frac) {
				p.Store(pg.Site, k)
				p.SetCompLocal(workload.PageID(j), idx, true)
			}
		}
		for idx, l := range pg.Optional {
			if s.Bool(frac) {
				p.Store(pg.Site, l.Object)
				p.SetOptLocal(workload.PageID(j), idx, true)
			}
		}
	}
	return p
}

// shuffledSites clones w with every site's page list in a random order.
func shuffledSites(w *workload.Workload, s *rng.Stream) *workload.Workload {
	c := w.Derive()
	for i := range c.Sites {
		pages := slices.Clone(c.Sites[i].Pages)
		for a := len(pages) - 1; a > 0; a-- {
			b := s.IntN(a + 1)
			pages[a], pages[b] = pages[b], pages[a]
		}
		c.Sites[i].Pages = pages
	}
	return c
}

// sameBits fails the test unless got and want have one bit pattern; what
// and args name the value, formatted only on a mismatch.
func sameBits(t *testing.T, got, want float64, what string, args ...any) {
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Helper()
		t.Fatalf("%s = %v (%#x), reference %v (%#x)", fmt.Sprintf(what, args...), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkAgainstReference holds every exported evaluation of p to the
// reference model, by bit pattern.
func checkAgainstReference(t *testing.T, e *Env, p *Placement) {
	t.Helper()
	spans := PredictSpans(e, p)
	for j := range e.W.Pages {
		id := workload.PageID(j)
		sameBits(t, float64(PageLocalTime(e, p, id)), float64(refPageLocalTime(e, p, id)), "page %d PageLocalTime", j)
		sameBits(t, float64(PageRemoteTime(e, p, id)), float64(refPageRemoteTime(e, p, id)), "page %d PageRemoteTime", j)
		sameBits(t, float64(PageTime(e, p, id)), float64(refPageTime(e, p, id)), "page %d PageTime", j)
		sameBits(t, float64(PageOptionalTime(e, p, id)), float64(refPageOptionalTime(e, p, id)), "page %d PageOptionalTime", j)
		pt, ot := PageTimes(e, p, id)
		sameBits(t, float64(pt), float64(refPageTime(e, p, id)), "page %d PageTimes page", j)
		sameBits(t, float64(ot), float64(refPageOptionalTime(e, p, id)), "page %d PageTimes optional", j)
		sameBits(t, float64(PageLocalLoad(e, p, id)), float64(refPageLocalLoad(e, p, id)), "page %d PageLocalLoad", j)
		sameBits(t, float64(PageRepoLoad(e, p, id)), float64(refPageRepoLoad(e, p, id)), "page %d PageRepoLoad", j)
		chain := "local"
		if refPageRemoteTime(e, p, id) >= refPageLocalTime(e, p, id) {
			chain = "remote"
		}
		sameBits(t, spans[j].Dur, float64(refPageTime(e, p, id)), "page %d predict span", j)
		if got := spans[j].Attr("chain"); got != chain {
			t.Fatalf("page %d predict chain %q, reference %q", j, got, chain)
		}
	}
	for i := range e.W.Sites {
		id := workload.SiteID(i)
		sameBits(t, float64(SiteLoad(e, p, id)), float64(refSiteLoad(e, p, id, refPageLocalLoad)), "site %d SiteLoad", i)
		sameBits(t, float64(SiteRepoLoad(e, p, id)), float64(refSiteLoad(e, p, id, refPageRepoLoad)), "site %d SiteRepoLoad", i)
	}
	sameBits(t, D1(e, p), refD1(e, p), "D1")
	sameBits(t, D2(e, p), refD2(e, p), "D2")
	sameBits(t, D(e, p), e.Alpha1*refD1(e, p)+e.Alpha2*refD2(e, p), "D")
	sameBits(t, float64(RepoLoad(e, p)), float64(refRepoLoad(e, p)), "RepoLoad")

	got, want := Evaluate(e, p), refEvaluate(e, p)
	sameBits(t, got.D1, want.D1, "Report.D1")
	sameBits(t, got.D2, want.D2, "Report.D2")
	sameBits(t, got.D, want.D, "Report.D")
	sameBits(t, float64(got.RepoLoad), float64(want.RepoLoad), "Report.RepoLoad")
	sameBits(t, float64(got.RepoCap), float64(want.RepoCap), "Report.RepoCap")
	if len(got.Sites) != len(want.Sites) {
		t.Fatalf("Report.Sites has %d lines, reference %d", len(got.Sites), len(want.Sites))
	}
	for i, s := range got.Sites {
		w := want.Sites[i]
		if s.Site != w.Site || s.StorageUsed != w.StorageUsed || s.StorageLimit != w.StorageLimit {
			t.Fatalf("Report.Sites[%d] = %+v, reference %+v", i, s, w)
		}
		sameBits(t, float64(s.Load), float64(w.Load), "Report.Sites[%d].Load", i)
		sameBits(t, float64(s.Capacity), float64(w.Capacity), "Report.Sites[%d].Capacity", i)
	}
}

// TestEvaluateMatchesReference holds the per-page kernel and everything
// built on it to the reference model, bit for bit, over random placements
// of the paper's and the small configuration, and over a workload whose
// site page lists are not in page-ID order (so a site's loads must be
// summed in its list's order, not the pass's).
func TestEvaluateMatchesReference(t *testing.T) {
	s := rng.New(45)
	small := workload.MustGenerate(workload.SmallConfig(), 45)
	cases := []struct {
		name string
		w    *workload.Workload
	}{
		{"paper", workload.MustGenerate(workload.DefaultConfig(), 45)},
		{"small", small},
		{"small shuffled sites", shuffledSites(small, s)},
	}
	for _, c := range cases {
		est, err := netsim.DrawEstimates(netsim.DefaultConfig(), c.w.NumSites(), rng.New(45))
		if err != nil {
			t.Fatal(err)
		}
		b := FullBudgets(c.w)
		b.RepoCapacity = 1000
		env, err := NewEnv(c.w, est, b)
		if err != nil {
			t.Fatal(err)
		}
		env.Alpha1, env.Alpha2 = 0.7, 0.3
		t.Run(c.name, func(t *testing.T) {
			checkAgainstReference(t, env, AllRemote(c.w))
			checkAgainstReference(t, env, AllLocal(c.w))
			checkAgainstReference(t, env, randomPlacement(c.w, s, 0.5))
		})
	}

	// The shuffled case has teeth only if list order moves some site's sum.
	p := randomPlacement(cases[2].w, rng.New(46), 0.5)
	env, err := NewEnv(cases[2].w, &netsim.Estimates{Sites: make([]netsim.SiteEstimate, cases[2].w.NumSites())}, FullBudgets(cases[2].w))
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i := range env.W.Sites {
		var inOrder units.ReqPerSec
		ids := slices.Clone(env.W.Sites[i].Pages)
		slices.Sort(ids)
		for _, pid := range ids {
			inOrder += refPageLocalLoad(env, p, pid)
		}
		moved = moved || inOrder != refSiteLoad(env, p, workload.SiteID(i), refPageLocalLoad)
	}
	if !moved {
		t.Fatal("no site's load depends on its page-list order: the shuffled case tests nothing")
	}
}

// TestCheckInvariantsErrorsMatchReference pins CheckInvariants' first
// finding and its text on dangling marks of both kinds.
func TestCheckInvariantsErrorsMatchReference(t *testing.T) {
	w := workload.MustGenerate(workload.SmallConfig(), 45)
	p := randomPlacement(w, rng.New(45), 0.5)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, optional := range []bool{false, true} {
		q := p.Clone()
		// The last page with a local mark of the kind loses that replica;
		// an earlier page's dangling mark of the other kind must not
		// be reported first unless it comes first in page order.
		for j := len(w.Pages) - 1; j >= 0; j-- {
			pg := &w.Pages[j]
			var k workload.ObjectID = -1
			if optional {
				for idx, l := range pg.Optional {
					if q.OptLocal(workload.PageID(j), idx) {
						k = l.Object
					}
				}
			} else {
				for idx, o := range pg.Compulsory {
					if q.CompLocal(workload.PageID(j), idx) {
						k = o
					}
				}
			}
			if k < 0 {
				continue
			}
			q.Unstore(pg.Site, k)
			want := refFirstDangling(q)
			if err := q.CheckInvariants(); err == nil || err.Error() != want {
				t.Fatalf("optional=%v: CheckInvariants = %v, want %q", optional, err, want)
			}
			break
		}
	}
}

// refFirstDangling is the reference scan: pages in order, compulsory before
// optional, the first local mark whose replica is missing.
func refFirstDangling(p *Placement) string {
	w := p.Workload()
	for j := range w.Pages {
		pg := &w.Pages[j]
		for idx, k := range pg.Compulsory {
			if p.CompLocal(workload.PageID(j), idx) && !p.IsStored(pg.Site, k) {
				return fmt.Sprintf("model: page %d marks compulsory object %d local but site %d does not store it", j, k, pg.Site)
			}
		}
		for idx, l := range pg.Optional {
			if p.OptLocal(workload.PageID(j), idx) && !p.IsStored(pg.Site, l.Object) {
				return fmt.Sprintf("model: page %d marks optional object %d local but site %d does not store it", j, l.Object, pg.Site)
			}
		}
	}
	return ""
}
