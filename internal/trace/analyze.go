package trace

import (
	"sort"
	"strconv"
)

// PageStats aggregates every recorded view of one page: how often each
// Eq. 5 chain dominated the max, and where the time went.
type PageStats struct {
	Page  int
	Views int
	// TotalD / MeanD are the summed and mean root-span durations — the
	// observed Eq. 5 page time.
	TotalD, MeanD float64
	// LocalWins / RemoteWins count views whose critical path was the local
	// (site) or remote (repository) chain.
	LocalWins, RemoteWins int
	// Transfer, Queue and Overhead split chain time by cause where the
	// producer recorded the split (httpsim does; the live client's chain
	// durations count wholly as Transfer).
	Transfer, Queue, Overhead float64
	// RetryBackoff is the total backoff-sleep time, Retries/Fallbacks the
	// event counts, Degraded the views served off the repository master
	// copy.
	RetryBackoff       float64
	Retries, Fallbacks int
	Degraded           int
	// Predicted is the plan's Eq. 5 time for the page and PredictedChain
	// the side that takes its max, both read from the page's SpanPredict
	// span; PredictedChain is "" when the forest carries none.
	Predicted      float64
	PredictedChain string
}

// TraceSummary is one page view, ranked by observed time.
type TraceSummary struct {
	Trace  TraceID
	Page   int
	D      float64
	Winner string // "local" | "remote"
}

// NameCount is one span name's or journal event type's tally.
type NameCount struct {
	Name  string
	Count int
}

// Analysis is the critical-path breakdown of a recorded span forest.
type Analysis struct {
	Spans  int
	Traces int // page-rooted traces

	// Pages is the per-page aggregation, sorted by page ID.
	Pages []PageStats
	// LocalWins / RemoteWins total the Eq. 5 dominant-chain split.
	LocalWins, RemoteWins int
	// Time split totals (seconds) across every trace.
	Transfer, Queue, Overhead, RetryBackoff float64
	Retries, Fallbacks, BreakerEvents       int
	DegradedViews                           int

	// views holds every page view, for TopSlowest.
	views []TraceSummary
	// names tallies span names.
	names map[string]int
}

// Analyze groups spans by trace and reduces each page-rooted trace to its
// Eq. 5 critical path: which chain won the max, and how the time divides
// into transfer, queue, protocol overhead and retry/backoff. Spans from
// the live client and the simulator are handled identically — they share
// one vocabulary. A SpanPredict span is no page view: it fills its page's
// Predicted and PredictedChain, for pages the forest also holds views of.
func Analyze(spans []Span) *Analysis {
	a := &Analysis{Spans: len(spans), names: make(map[string]int)}
	byTrace := make(map[TraceID][]*Span)
	order := make([]TraceID, 0, 64) // first-seen order keeps output deterministic
	predicted := make(map[int]*Span)
	for i := range spans {
		s := &spans[i]
		a.names[s.Name]++
		if s.Name == SpanPredict {
			page, _ := strconv.Atoi(s.Attr(AttrPage))
			predicted[page] = s
			continue
		}
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}

	pages := make(map[int]*PageStats)
	for _, tid := range order {
		group := byTrace[tid]
		var root *Span
		for _, s := range group {
			if s.Parent == 0 && s.Name == SpanPage {
				root = s
				break
			}
		}
		if root == nil {
			continue // not a page trace (orphaned server spans, etc.)
		}
		a.Traces++
		page, _ := strconv.Atoi(root.Attr(AttrPage))
		ps := pages[page]
		if ps == nil {
			ps = &PageStats{Page: page}
			pages[page] = ps
		}
		ps.Views++
		ps.TotalD += root.Dur

		var localDur, remoteDur float64
		var sawLocal, sawRemote bool
		degraded := root.Attr(AttrDegraded) == "true"
		for _, s := range group {
			switch s.Name {
			case SpanChain:
				xfer, queue, ovhd := chainSplit(s)
				ps.Transfer += xfer
				ps.Queue += queue
				ps.Overhead += ovhd
				a.Transfer += xfer
				a.Queue += queue
				a.Overhead += ovhd
				switch s.Attr(AttrChain) {
				case "local":
					sawLocal = true
					if s.Dur > localDur {
						localDur = s.Dur
					}
				case "remote":
					sawRemote = true
					if s.Dur > remoteDur {
						remoteDur = s.Dur
					}
				}
			case SpanBackoff:
				ps.RetryBackoff += s.Dur
				a.RetryBackoff += s.Dur
			case SpanRetry:
				ps.Retries++
				a.Retries++
			case SpanFallback:
				ps.Fallbacks++
				a.Fallbacks++
			case SpanBreaker:
				a.BreakerEvents++
			case SpanFailover:
				ps.RetryBackoff += s.Dur
				a.RetryBackoff += s.Dur
			}
		}
		winner := "local"
		switch {
		case degraded:
			winner = "remote"
		case sawRemote && (!sawLocal || remoteDur >= localDur):
			winner = "remote"
		}
		if winner == "remote" {
			ps.RemoteWins++
			a.RemoteWins++
		} else {
			ps.LocalWins++
			a.LocalWins++
		}
		if degraded {
			ps.Degraded++
			a.DegradedViews++
		}
		a.views = append(a.views, TraceSummary{Trace: tid, Page: page, D: root.Dur, Winner: winner})
	}

	a.Pages = make([]PageStats, 0, len(pages))
	for _, ps := range pages {
		if ps.Views > 0 {
			ps.MeanD = ps.TotalD / float64(ps.Views)
		}
		if s := predicted[ps.Page]; s != nil {
			ps.Predicted, ps.PredictedChain = s.Dur, s.Attr(AttrChain)
		}
		a.Pages = append(a.Pages, *ps)
	}
	sort.Slice(a.Pages, func(i, j int) bool { return a.Pages[i].Page < a.Pages[j].Page })
	return a
}

// chainSplit extracts a chain span's recorded time split. Producers that
// annotate transfer_s/queue_s/overhead_s (httpsim) are read exactly; bare
// chain spans (the live client) count wholly as transfer.
func chainSplit(s *Span) (transfer, queue, overhead float64) {
	any := false
	if v := s.Attr(AttrXferS); v != "" {
		transfer, _ = strconv.ParseFloat(v, 64)
		any = true
	}
	if v := s.Attr(AttrQueueS); v != "" {
		queue, _ = strconv.ParseFloat(v, 64)
		any = true
	}
	if v := s.Attr(AttrOvhdS); v != "" {
		overhead, _ = strconv.ParseFloat(v, 64)
		any = true
	}
	if !any {
		transfer = s.Dur
	}
	return transfer, queue, overhead
}

// TopSlowest returns the n slowest page views, descending by observed D
// (ties broken by trace ID for determinism).
func (a *Analysis) TopSlowest(n int) []TraceSummary {
	out := append([]TraceSummary(nil), a.views...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].D > out[j].D {
			return true
		}
		if out[i].D < out[j].D {
			return false
		}
		return out[i].Trace < out[j].Trace
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// NameCounts returns span-name tallies sorted by descending count then
// name.
func (a *Analysis) NameCounts() []NameCount { return tally(a.names) }

// tally flattens a count map, sorted by descending count then name.
func tally(counts map[string]int) []NameCount {
	out := make([]NameCount, 0, len(counts))
	for name, n := range counts {
		out = append(out, NameCount{Name: name, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}
