package httpsim

import (
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// TraceEvent is one page view in a recorded request trace: the page, the
// optional links the user requested (indices into the page's Optional
// list), and the actual per-request network attributes drawn for it. A
// trace pins *traffic and network conditions*; policies replayed over it
// decide only the local/remote split. One view is 88 bytes plus 40 per
// optional pick: before the picks, 8.8 MB per recorded paper-scale run
// (10 sites × 10,000 views), 141 KB at quick scale.
type TraceEvent struct {
	Page      workload.PageID
	Optional  []int
	LocalRate units.Rate
	RepoRate  units.Rate
	LocalOvhd units.Seconds
	RepoOvhd  units.Seconds
	// OptDraws holds each optional download's draws, parallel to Optional.
	OptDraws []OptDraw
}

// OptDraw is one optional download's network draws, local and repository
// variants both, so the replay is policy-independent.
type OptDraw struct {
	LocalRate units.Rate
	RepoRate  units.Rate
	LocalOvhd units.Seconds
	RepoOvhd  units.Seconds
}

// Trace is a per-site recorded request sequence.
type Trace struct {
	NumSites int
	NumPages int
	// Seed is the seed of the stream the trace was recorded from. Replay
	// re-derives the replay-time streams (queueing arrivals, outage draws,
	// span IDs) from it, which is what makes Replay(Record(...)) equal Run.
	Seed   uint64
	Events [][]TraceEvent // indexed by site

	// checked is the workload the trace has been validated against: set by
	// Record, or by the first Replay of a hand-built trace.
	checked *workload.Workload
}

// Record draws a trace for the workload: pages by popularity, optional
// requests by the interest/fraction model, and per-request §5.1
// perturbations around the estimates. Only RequestsPerSite and Perturb are
// read — they are record-time; every other Config field is replay-time.
// Replaying any policy over the trace with Replay yields exactly what Run
// measures for that (workload, estimates, config, seed).
func Record(w *workload.Workload, est *netsim.Estimates, cfg Config, stream *rng.Stream) (*Trace, error) {
	if err := cfg.validate(w, est); err != nil {
		return nil, err
	}
	tr := &Trace{
		NumSites: w.NumSites(),
		NumPages: w.NumPages(),
		Seed:     stream.Seed(),
		Events:   make([][]TraceEvent, w.NumSites()),
		checked:  w,
	}
	for i := range tr.Events {
		var err error
		if tr.Events[i], err = recordSite(w, est, cfg, stream, workload.SiteID(i), nil); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// recordSite draws site i's views from the run's traffic stream, into buf
// when it is large enough — the only place requests and network conditions
// are drawn. The draw order within each stream is load-bearing: every golden
// result was measured on it.
func recordSite(w *workload.Workload, est *netsim.Estimates, cfg Config, stream *rng.Stream, i workload.SiteID, buf []TraceEvent) ([]TraceEvent, error) {
	stream = stream.Split(uint64(i))
	pageStream := stream.Split(simPageStream)
	optStream := stream.Split(simOptStream)
	picker, err := newPagePicker(w, i)
	if err != nil {
		return nil, err
	}
	perturber, err := netsim.NewPerturber(cfg.Perturb, est.Site(int(i)), stream.Split(simPerturbStream))
	if err != nil {
		return nil, err
	}

	if cap(buf) < cfg.RequestsPerSite {
		buf = make([]TraceEvent, cfg.RequestsPerSite)
	}
	events := buf[:cfg.RequestsPerSite]
	for n := range events {
		ev := &events[n]
		// Per-request actual network attributes, both sides always drawn (in
		// field order) so the stream consumption is policy-independent.
		*ev = TraceEvent{
			Page:      picker.draw(pageStream),
			LocalRate: perturber.LocalRate(),
			RepoRate:  perturber.RepoRate(),
			LocalOvhd: perturber.LocalOvhd(),
			RepoOvhd:  perturber.RepoOvhd(),
		}

		// The user requests optional objects with the page's interest
		// probability, then picks the configured fraction of the links,
		// uniformly; each download gets fresh draws.
		pg := &w.Pages[ev.Page]
		if len(pg.Optional) == 0 || !optStream.Bool(w.Config.OptionalInterestProb) {
			continue
		}
		want := int(float64(len(pg.Optional))*w.Config.OptionalRequestFrac + 0.5)
		if want < 1 {
			want = 1
		}
		ev.Optional = optStream.SampleWithoutReplacement(len(pg.Optional), want)
		ev.OptDraws = make([]OptDraw, len(ev.Optional))
		for oi := range ev.OptDraws {
			ev.OptDraws[oi] = OptDraw{ // drawn in field order
				LocalRate: perturber.LocalRate(),
				RepoRate:  perturber.RepoRate(),
				LocalOvhd: perturber.LocalOvhd(),
				RepoOvhd:  perturber.RepoOvhd(),
			}
		}
	}
	return events, nil
}

// pagePicker draws pages of one site proportionally to f(W_j).
type pagePicker struct {
	pages []workload.PageID
	cum   []float64 // cumulative frequency
}

func newPagePicker(w *workload.Workload, i workload.SiteID) (*pagePicker, error) {
	pages := w.Sites[i].Pages
	if len(pages) == 0 {
		return nil, fmt.Errorf("httpsim: site %d hosts no pages", i)
	}
	cum := make([]float64, len(pages))
	total := 0.0
	for idx, pid := range pages {
		total += float64(w.Pages[pid].Freq)
		cum[idx] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("httpsim: site %d has zero total frequency", i)
	}
	return &pagePicker{pages: pages, cum: cum}, nil
}

func (pp *pagePicker) draw(s *rng.Stream) workload.PageID {
	u := s.Float64() * pp.cum[len(pp.cum)-1]
	idx := sort.SearchFloat64s(pp.cum, u)
	if idx >= len(pp.pages) {
		idx = len(pp.pages) - 1
	}
	return pp.pages[idx]
}

// Validate checks a trace against a workload.
func (tr *Trace) Validate(w *workload.Workload) error {
	if tr.NumSites != w.NumSites() || tr.NumPages != w.NumPages() {
		return fmt.Errorf("httpsim: trace shaped (%d sites, %d pages) for workload (%d, %d)",
			tr.NumSites, tr.NumPages, w.NumSites(), w.NumPages())
	}
	if len(tr.Events) != w.NumSites() {
		return fmt.Errorf("httpsim: trace has %d event lists for %d sites", len(tr.Events), w.NumSites())
	}
	for i, events := range tr.Events {
		for n, ev := range events {
			if ev.Page < 0 || int(ev.Page) >= w.NumPages() {
				return fmt.Errorf("httpsim: site %d event %d references page %d", i, n, ev.Page)
			}
			pg := &w.Pages[ev.Page]
			if pg.Site != workload.SiteID(i) {
				return fmt.Errorf("httpsim: site %d event %d requests page %d hosted elsewhere", i, n, ev.Page)
			}
			if len(ev.OptDraws) != len(ev.Optional) {
				return fmt.Errorf("httpsim: site %d event %d has inconsistent optional draws", i, n)
			}
			for _, idx := range ev.Optional {
				if idx < 0 || idx >= len(pg.Optional) {
					return fmt.Errorf("httpsim: site %d event %d optional index %d out of range", i, n, idx)
				}
			}
			if ev.LocalRate <= 0 || ev.RepoRate <= 0 {
				return fmt.Errorf("httpsim: site %d event %d has non-positive rates", i, n)
			}
		}
	}
	return nil
}

// Replay measures a policy over a recorded trace through the code Run
// replays its own draws through, so every Config field behaves as under Run
// except RequestsPerSite and Perturb, which were consumed at record time and
// are ignored. Stateful policies see the views in recorded order per site.
// A trace not yet validated against w is validated and marked here, so the
// first Replay of a hand-built trace must not race with another.
func Replay(w *workload.Workload, tr *Trace, dec Decider, cfg Config) (*Result, error) {
	if err := cfg.Outage.Validate(); err != nil {
		return nil, err
	}
	if tr.checked != w {
		if err := tr.Validate(w); err != nil {
			return nil, err
		}
		tr.checked = w
	}
	return replaySites(w, dec, cfg, tr.Seed, func(i workload.SiteID, _ []TraceEvent) ([]TraceEvent, error) {
		return tr.Events[i], nil
	})
}
