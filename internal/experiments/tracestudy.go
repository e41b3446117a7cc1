package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/policies"
	"repro/internal/trace"
)

// criticalPathTolerance is the relative deviation beyond which a page's
// observed Eq. 5 time is flagged against the planner's prediction.
const criticalPathTolerance = 0.25

// criticalPathStorage is the storage fraction the study plans at — tight
// enough that placements mix local and remote chains, so both Eq. 5 sides
// actually appear as critical paths.
const criticalPathStorage = 0.5

// PageDeviation is one page's observed-vs-predicted comparison.
type PageDeviation struct {
	Page            int
	Views           int
	Observed        float64 // mean traced root duration (s)
	Predicted       float64 // model.PageTime under the planned placement (s)
	RelErr          float64 // (observed-predicted)/predicted
	ObservedWinner  string  // dominant Eq. 5 chain in the traces
	PredictedWinner string  // dominant chain in the model
}

// CriticalPathResult is the observed-vs-predicted-D study's output: how
// closely the traced simulator's per-page critical paths track the planner's
// Eq. 5 predictions under the §5.1 estimate-vs-actual deviations.
type CriticalPathResult struct {
	Runs      int
	Tolerance float64
	// Pages is the number of (run, page) comparisons; Within counts those
	// whose observed mean D landed inside the tolerance band.
	Pages, Within int
	// MeanAbsRelErr averages |observed-predicted|/predicted over all pages.
	MeanAbsRelErr float64
	// WinnerAgreement is the fraction of pages whose dominant observed chain
	// matches the model's predicted max side.
	WinnerAgreement float64
	// Observed time split totals across every traced view (seconds).
	Transfer, Queue, Overhead, RetryBackoff float64
	// Flagged lists run 0's out-of-tolerance pages, worst first.
	Flagged []PageDeviation
}

// CriticalPath plans the proposed policy at criticalPathStorage, simulates
// it with tracing armed, and compares every page's observed critical path —
// mean traced D and the chain that won the Eq. 5 max — against the planner's
// prediction from the unperturbed estimates. The gap quantifies what the
// §5.1 deviations cost page by page, and the flagged list names the pages an
// operator would investigate first.
func CriticalPath(opts Options) (*CriticalPathResult, error) {
	type runAgg struct {
		pages, within, agree int
		sumAbsRel            float64
		xfer, queue, ovhd    float64
		retryBackoff         float64
		flagged              []PageDeviation // retained for run 0 only
	}
	perRun := make([]runAgg, opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		r := env.r
		penv, p, _, err := env.plan(env.w, storageOnly(env.w, criticalPathStorage), core.Options{})
		if err != nil {
			return err
		}
		cfg := env.simCfg
		cfg.Trace = trace.NewBuffer(0)
		if _, err := env.simulate(env.w, policies.NewStatic("Proposed", p), cfg); err != nil {
			return err
		}
		a := trace.Analyze(append(cfg.Trace.Spans(), model.PredictSpans(penv, p)...))

		agg := &perRun[r]
		agg.xfer, agg.queue, agg.ovhd, agg.retryBackoff = a.Transfer, a.Queue, a.Overhead, a.RetryBackoff
		for _, ps := range a.Pages {
			pred, predWinner := ps.Predicted, ps.PredictedChain
			if pred <= 0 {
				continue
			}
			obsWinner := "local"
			if ps.RemoteWins > ps.LocalWins {
				obsWinner = "remote"
			}
			rel := (ps.MeanD - pred) / pred
			agg.pages++
			agg.sumAbsRel += math.Abs(rel)
			if math.Abs(rel) <= criticalPathTolerance {
				agg.within++
			}
			if obsWinner == predWinner {
				agg.agree++
			}
			if r == 0 && math.Abs(rel) > criticalPathTolerance {
				agg.flagged = append(agg.flagged, PageDeviation{
					Page: ps.Page, Views: ps.Views,
					Observed: ps.MeanD, Predicted: pred, RelErr: rel,
					ObservedWinner: obsWinner, PredictedWinner: predWinner,
				})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &CriticalPathResult{Runs: opts.Runs, Tolerance: criticalPathTolerance}
	var sumAbsRel float64
	var agree int
	for r := range perRun {
		agg := &perRun[r]
		res.Pages += agg.pages
		res.Within += agg.within
		sumAbsRel += agg.sumAbsRel
		agree += agg.agree
		res.Transfer += agg.xfer
		res.Queue += agg.queue
		res.Overhead += agg.ovhd
		res.RetryBackoff += agg.retryBackoff
	}
	if res.Pages > 0 {
		res.MeanAbsRelErr = sumAbsRel / float64(res.Pages)
		res.WinnerAgreement = float64(agree) / float64(res.Pages)
	}
	res.Flagged = perRun[0].flagged
	sort.Slice(res.Flagged, func(i, j int) bool {
		a, b := math.Abs(res.Flagged[i].RelErr), math.Abs(res.Flagged[j].RelErr)
		if a > b {
			return true
		}
		if a < b {
			return false
		}
		return res.Flagged[i].Page < res.Flagged[j].Page
	})
	if len(res.Flagged) > 8 {
		res.Flagged = res.Flagged[:8]
	}
	return res, nil
}

// Write renders the study as aligned text.
func (r *CriticalPathResult) Write(w io.Writer) error {
	within := 0.0
	if r.Pages > 0 {
		within = 100 * float64(r.Within) / float64(r.Pages)
	}
	total := r.Transfer + r.Queue + r.Overhead + r.RetryBackoff
	pct := func(v float64) float64 {
		if total <= 0 {
			return 0
		}
		return 100 * v / total
	}
	if _, err := fmt.Fprintf(w,
		"pages compared: %d across %d runs (planned at %.0f%% storage)\n"+
			"within +/-%.0f%% of predicted D: %.1f%%   mean |obs-pred|/pred: %.1f%%\n"+
			"Eq. 5 winner agreement (observed chain == predicted max side): %.1f%%\n"+
			"observed time split: transfer %.1f%%  queue %.1f%%  overhead %.1f%%  retry/failover %.1f%%\n",
		r.Pages, r.Runs, 100*criticalPathStorage,
		100*r.Tolerance, within, 100*r.MeanAbsRelErr,
		100*r.WinnerAgreement,
		pct(r.Transfer), pct(r.Queue), pct(r.Overhead), pct(r.RetryBackoff)); err != nil {
		return err
	}
	if len(r.Flagged) == 0 {
		_, err := fmt.Fprintf(w, "no pages outside tolerance in run 0\n")
		return err
	}
	if _, err := fmt.Fprintf(w, "run 0 pages outside tolerance (worst first):\n"); err != nil {
		return err
	}
	for _, d := range r.Flagged {
		if _, err := fmt.Fprintf(w, "  page %4d: observed %8.2fs vs predicted %8.2fs (%+.0f%%), winner obs=%s pred=%s, %d views\n",
			d.Page, d.Observed, d.Predicted, 100*d.RelErr, d.ObservedWinner, d.PredictedWinner, d.Views); err != nil {
			return err
		}
	}
	return nil
}
