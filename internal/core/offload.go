package core

import (
	"fmt"
	"io"
	"math"

	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// OffloadStats summarizes an off-loading negotiation.
type OffloadStats struct {
	Ran            bool // the protocol had to run at all
	Rounds         int  // message-exchange phases
	Messages       int  // total protocol messages
	Restored       bool // Eq. 9 holds on exit
	RepoLoadBefore units.ReqPerSec
	RepoLoadAfter  units.ReqPerSec
	MovedLocal     units.ReqPerSec // workload moved from repository to sites
	NewReplicas    int
	Swaps          int
}

// repoOverloaded reports whether the repository's load exceeds its capacity
// (Eq. 9), the condition on which the off-loading negotiation runs.
func (pl *Planner) repoOverloaded() bool {
	capR := float64(pl.env.Budgets.RepoCapacity)
	return !math.IsInf(capR, 1) && float64(pl.RepoLoad()) > capR
}

// maxOffloadRounds bounds the negotiation: each round either restores the
// constraint or moves at least one site to L3, so sites+2 rounds suffice;
// the bound is a backstop against pathological float behavior.
const maxOffloadRounds = 64

// Offload runs the repository's OFF_LOADING_REPOSITORY loop (Section 4.2)
// against the planner's sites with every acceptance evaluated inline, in
// ascending site order: the sequential reference that OffloadParallel is
// tested against. log, when non-nil, receives a line per protocol message.
func (pl *Planner) Offload(log io.Writer) OffloadStats {
	return pl.OffloadParallel(log, 1, nil)
}

// OffloadParallel runs the negotiation with each phase's AcceptWorkload
// calls fanned out over up to workers goroutines — at workers >= sites, the
// shape the paper describes: every local server answers its NewReq at once
// and the repository waits for all answers before the next phase. The sites
// accept in place: AcceptWorkload(i) touches only site i's cells (see
// parallel.go), and the answers are slotted in ascending site order before
// the coordinator reads them, so the placement, the statistics and the
// message log are bit-identical at every worker count. A non-nil parent
// gains a trace.SpanOffload child carrying the workers' busy time and the
// round and message counts.
func (pl *Planner) OffloadParallel(log io.Writer, workers int, parent *trace.Active) (stats OffloadStats) {
	sp := parent.StartChild(trace.SpanOffload)
	if sp != nil {
		defer func() {
			sp.SetAttr(trace.I(trace.AttrOffloadRounds, int64(stats.Rounds)),
				trace.I(trace.AttrOffloadMessages, int64(stats.Messages)))
			sp.End()
		}()
	}
	stats = OffloadStats{RepoLoadBefore: pl.RepoLoad()}
	capR := float64(pl.env.Budgets.RepoCapacity)
	logf := func(format string, args ...interface{}) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}

	pR := float64(pl.RepoLoad())
	stats.Messages += pl.env.W.NumSites() // the initial status messages
	logf("repository: collected %d status messages, P(R)=%.2f req/s, C(R)=%.2f req/s\n",
		pl.env.W.NumSites(), pR, capR)
	if !pl.repoOverloaded() {
		stats.Restored = true
		stats.RepoLoadAfter = units.ReqPerSec(pR)
		return stats
	}
	stats.Ran = true

	exhausted := make(map[workload.SiteID]bool) // the L3 set accumulated across phases

	for stats.Rounds = 1; stats.Rounds <= maxOffloadRounds; stats.Rounds++ {
		pR = float64(pl.RepoLoad())
		if pR <= capR {
			break
		}
		excess := pR - capR

		// Classify sites. An unconstrained site's free capacity is clamped
		// to the excess: it can absorb everything, and the clamp keeps the
		// proportional split finite.
		var l1, l2 []workload.SiteID
		freeCap := make(map[workload.SiteID]float64)
		for i := 0; i < pl.env.W.NumSites(); i++ {
			id := workload.SiteID(i)
			if exhausted[id] {
				continue
			}
			fc := pl.freeCapacity(id)
			if math.IsInf(fc, 1) {
				fc = excess
			}
			if fc <= 1e-9 {
				continue
			}
			freeCap[id] = fc
			if pl.freeSpace(id) > 0 {
				l1 = append(l1, id)
			} else {
				l2 = append(l2, id)
			}
		}
		if len(l1) == 0 && len(l2) == 0 {
			logf("repository: L1 and L2 empty — constraint cannot be restored (%.2f > %.2f)\n", pR, capR)
			break
		}

		pL1 := 0.0
		for _, id := range l1 {
			pL1 += freeCap[id]
		}
		pL2 := 0.0
		for _, id := range l2 {
			pL2 += freeCap[id]
		}

		reqs := make(map[workload.SiteID]units.ReqPerSec)
		if excess <= pL1 {
			for _, id := range l1 {
				reqs[id] = units.ReqPerSec(freeCap[id] * excess / pL1)
			}
		} else {
			for _, id := range l1 {
				reqs[id] = units.ReqPerSec(freeCap[id])
			}
			if pL2 > 0 {
				over := math.Min(excess-pL1, pL2)
				for _, id := range l2 {
					reqs[id] = units.ReqPerSec(freeCap[id] * over / pL2)
				}
			}
		}
		logf("repository: round %d, excess %.2f req/s, |L1|=%d (P=%.2f), |L2|=%d (P=%.2f)\n",
			stats.Rounds, excess, len(l1), pL1, len(l2), pL2)
		for _, id := range l1 {
			logf("  -> S%d (L1): NewReq %.3f req/s\n", id, float64(reqs[id]))
		}
		for _, id := range l2 {
			if r, ok := reqs[id]; ok {
				logf("  -> S%d (L2): NewReq %.3f req/s\n", id, float64(r))
			}
		}

		answers := make([]AcceptResult, 0, len(reqs))
		for i := 0; i < pl.env.W.NumSites(); i++ {
			if target, ok := reqs[workload.SiteID(i)]; ok {
				answers = append(answers, AcceptResult{Site: workload.SiteID(i), Target: target})
			}
		}
		fanOut(workers, len(answers), sp, func(s int) {
			answers[s] = pl.AcceptWorkload(answers[s].Site, answers[s].Target)
		})
		stats.Messages += 2 * len(reqs) // NewReq out + answer back
		for _, a := range answers {
			stats.MovedLocal += a.Accepted
			stats.NewReplicas += a.Stored
			stats.Swaps += a.Swapped
			logf("  <- S%d: accepted %.3f of %.3f req/s (stored %d, swapped %d)\n",
				a.Site, float64(a.Accepted), float64(a.Target), a.Stored, a.Swapped)
			if float64(a.Accepted) < float64(a.Target)-1e-6 {
				exhausted[a.Site] = true // the site reports it now belongs to L3
				logf("     S%d moves to L3\n", a.Site)
			}
		}
	}

	stats.RepoLoadAfter = pl.RepoLoad()
	stats.Restored = float64(stats.RepoLoadAfter) <= capR*(1+1e-9)+1e-9
	stats.Messages += pl.env.W.NumSites() // Off_Loading_END broadcast
	logf("repository: done after %d rounds, P(R)=%.2f req/s (restored=%v)\n",
		stats.Rounds, float64(stats.RepoLoadAfter), stats.Restored)
	return stats
}
