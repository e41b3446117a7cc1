package repair

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

// SiteState is one site's position in the probe law.
type SiteState int

// The states, in the order a failing and returning site visits them.
const (
	Up         SiteState = iota // answers probes; serves its (possibly repaired) pages
	Suspect                     // missed fewer than FailThreshold probes in a row
	Down                        // missed FailThreshold in a row; its pages are re-homed
	Recovering                  // down, then answered okThreshold in a row; awaits the commit
)

var stateNames = [...]string{Up: "up", Suspect: "suspect", Down: "down", Recovering: "recovering"}

func (s SiteState) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("SiteState(%d)", int(s))
}

// The probe law's parameters.
const (
	FailThreshold = 3 // K: consecutive missed probes before a site is down
	okThreshold   = 2 // consecutive answers before a down site recovers
	// latencyAlpha smooths the per-site probe-RTT EWMA. Higher values react
	// faster but flap more; the EWMA exists so that one slow probe (a GC
	// pause) does not condemn a healthy site.
	latencyAlpha = 0.3
)

// Health is the self-healing layer's detection law as a step machine: per
// site, K-of-N damping on both edges (up → suspect → down after
// FailThreshold misses in a row, down → recovering after okThreshold
// answers in a row) and a probe-RTT EWMA that demotes a slow answer to a
// miss. It holds no lock, reads no clock and sends no probe: the caller
// feeds it one round of answers per Step, and K-of-N counts rounds. The
// live supervisor drives it under its mutex; the recovery study drives it
// through a scripted outage.
type Health struct {
	threshold float64 // latency threshold in seconds; ≤ 0 never demotes
	states    []SiteState
	fails     []int
	oks       []int
	ewma      []float64 // smoothed probe RTT per site, seconds; 0 = no sample yet
	lastRTT   []float64 // last raw probe RTT per site, seconds
}

// NewHealth returns the law for sites sites, all Up. A positive
// latencyThreshold arms the limping-node demotion (see Step).
func NewHealth(sites int, latencyThreshold time.Duration) *Health {
	return &Health{
		threshold: latencyThreshold.Seconds(),
		states:    make([]SiteState, sites),
		fails:     make([]int, sites),
		oks:       make([]int, sites),
		ewma:      make([]float64, sites),
		lastRTT:   make([]float64, sites),
	}
}

// Transition is one site's state change.
type Transition struct {
	Site     int
	From, To SiteState
}

// Edge reports whether t changes the down set the caller must commit: a
// site declared down, or a down site ready to return. A flap during
// recovery falls back to Down without one — the site never left the set.
func (t Transition) Edge() bool {
	return t.To == Recovering || t.From == Suspect && t.To == Down
}

// Step runs one probe round: ok[i] says whether site i answered and rtt[i]
// is that answer's round-trip time. It returns the round's transitions in
// site order and the answers demoted to misses because the smoothed RTT
// exceeds the threshold: a limping site answers probes while serving data
// at a crawl.
func (h *Health) Step(ok []bool, rtt []time.Duration) (moves []Transition, demoted int) {
	for i, up := range ok {
		if up {
			r := rtt[i].Seconds()
			h.lastRTT[i] = r
			if h.ewma[i] == 0 {
				h.ewma[i] = r
			} else {
				h.ewma[i] = latencyAlpha*r + (1-latencyAlpha)*h.ewma[i]
			}
			if h.threshold > 0 && h.ewma[i] > h.threshold {
				up = false // healthy answer, unhealthy latency: limping
				demoted++
			}
		}
		from, to := h.states[i], h.states[i]
		if up {
			h.fails[i] = 0
		} else {
			h.oks[i] = 0
		}
		switch {
		case up && from == Suspect:
			to = Up
		case up && from == Down:
			if h.oks[i]++; h.oks[i] >= okThreshold {
				to = Recovering
			}
		case !up && from == Up:
			h.fails[i], to = 1, Suspect
		case !up && from == Suspect:
			if h.fails[i]++; h.fails[i] >= FailThreshold {
				to = Down
			}
		case !up && from == Recovering:
			to = Down // flapped during recovery
		}
		if to != from {
			h.states[i] = to
			moves = append(moves, Transition{Site: i, From: from, To: to})
		}
	}
	return moves, demoted
}

// Down is the down set to commit: every site in Down. Recovering sites are
// left out, so the commit brings them back.
func (h *Health) Down() []workload.SiteID {
	var down []workload.SiteID
	for i, st := range h.states {
		if st == Down {
			down = append(down, workload.SiteID(i))
		}
	}
	return down
}

// Commit moves every Recovering site to Up once the caller's commit of
// Down has landed, and returns those transitions.
func (h *Health) Commit() []Transition {
	var moves []Transition
	for i, st := range h.states {
		if st == Recovering {
			h.states[i] = Up
			moves = append(moves, Transition{Site: i, From: Recovering, To: Up})
		}
	}
	return moves
}

// States snapshots the per-site states.
func (h *Health) States() []SiteState { return append([]SiteState(nil), h.states...) }

// Latency returns site i's last raw probe RTT and its EWMA, in seconds
// (zero until its first answer).
func (h *Health) Latency(i int) (last, ewma float64) { return h.lastRTT[i], h.ewma[i] }
