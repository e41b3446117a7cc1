package workload

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/units"
)

// Drift returns a Derive copy of the workload whose access pattern has
// shifted: at every site, swapFrac of the hot pages turn cold and an equal
// number of previously cold pages turn hot (the "breaking news" effect
// Section 4.1 gives as the reason planned allocations go stale).
// Frequencies are re-dealt within the hot/cold mixture; the content —
// pages, objects, references, sizes — is untouched, so placements planned
// against the original workload remain structurally valid and can be
// simulated against the drifted one.
func Drift(w *Workload, swapFrac float64, seed uint64) (*Workload, error) {
	if swapFrac < 0 || swapFrac > 1 {
		return nil, fmt.Errorf("workload: swapFrac %v outside [0,1]", swapFrac)
	}
	out := w.Derive()
	root := rng.New(seed)
	for i := range w.Sites {
		if err := driftSite(out, SiteID(i), swapFrac, root.Split(uint64(i))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// driftSite rotates one site's hot set and re-deals its frequencies.
func driftSite(w *Workload, i SiteID, swapFrac float64, s *rng.Stream) error {
	pages := w.Sites[i].Pages
	var hot, cold []PageID
	for _, pid := range pages {
		if w.Pages[pid].Hot {
			hot = append(hot, pid)
		} else {
			cold = append(cold, pid)
		}
	}
	nSwap := int(float64(len(hot))*swapFrac + 0.5)
	if nSwap > len(cold) {
		nSwap = len(cold)
	}
	// Pick the leavers and the joiners.
	for _, idx := range s.SampleWithoutReplacement(len(hot), nSwap) {
		w.Pages[hot[idx]].Hot = false
	}
	for _, idx := range s.SampleWithoutReplacement(len(cold), nSwap) {
		w.Pages[cold[idx]].Hot = true
	}

	// Re-deal frequencies within the (possibly unchanged) class sizes.
	var nHot int
	for _, pid := range pages {
		if w.Pages[pid].Hot {
			nHot++
		}
	}
	total := float64(w.Config.PageRatePerSite)
	share := w.Config.HotTrafficShare
	if nHot == 0 || nHot == len(pages) {
		share = 1
		nHot = len(pages)
		for _, pid := range pages {
			w.Pages[pid].Hot = true
		}
	}
	for _, pid := range pages {
		p := &w.Pages[pid]
		if p.Hot {
			p.Freq = units.ReqPerSec(total * share / float64(nHot))
		} else {
			p.Freq = units.ReqPerSec(total * (1 - share) / float64(len(pages)-nHot))
		}
	}
	return nil
}
