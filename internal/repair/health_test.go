package repair

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// letter is a state's one-letter name in the scripts below.
var letter = map[SiteState]byte{Up: 'U', Suspect: 'S', Down: 'D', Recovering: 'R'}

// TestHealthTransitions walks the probe law for one site round by round —
// no goroutines, no sleeps, no cluster. A script is one character per step:
// x a missed probe, o an answered one, c the caller's commit landing. want
// is the state after each step, and edges the 1-based steps that cross the
// down or recovered edge.
func TestHealthTransitions(t *testing.T) {
	for _, tc := range []struct {
		name, script, want string
		edges              []int
	}{
		{"one miss suspects, one answer clears", "xo", "SU", nil},
		{"the third miss in a row is down", "xxx", "SSD", []int{3}},
		{"an answer resets the miss count", "xxoxxx", "SSUSSD", []int{6}},
		{"the second answer in a row recovers", "xxxoo", "SSDDR", []int{3, 5}},
		{"a miss between answers resets the answer count", "xxxoxoo", "SSDDDDR", []int{3, 7}},
		{"a flap during recovery is down again, no edge", "xxxoox", "SSDDRD", []int{3, 5}},
		{"the commit brings a recovering site up", "xxxooc", "SSDDRU", []int{3, 5}},
		{"a commit moves no other state", "xcxxcoc", "SSSDDDD", []int{4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHealth(2, 0)
			var got []byte
			var edges []int
			for k, c := range tc.script {
				from := h.States()[0]
				var moves []Transition
				if c == 'c' {
					moves = h.Commit()
				} else {
					var demoted int
					moves, demoted = h.Step([]bool{c == 'o', true}, make([]time.Duration, 2))
					if demoted != 0 {
						t.Fatalf("step %d: %d answers demoted with no latency threshold", k+1, demoted)
					}
				}
				to := h.States()[0]
				var want []Transition
				if to != from {
					want = []Transition{{Site: 0, From: from, To: to}}
				}
				if !slices.Equal(moves, want) {
					t.Fatalf("step %d (%c): transitions %v, want %v", k+1, c, moves, want)
				}
				if slices.ContainsFunc(moves, Transition.Edge) {
					edges = append(edges, k+1)
				}
				if st := h.States()[1]; st != Up {
					t.Fatalf("step %d: the answering site is %v", k+1, st)
				}
				got = append(got, letter[to])
			}
			if string(got) != tc.want || !slices.Equal(edges, tc.edges) {
				t.Fatalf("%s: states %s edges %v, want %s edges %v", tc.script, got, edges, tc.want, tc.edges)
			}
			wantDown := []workload.SiteID(nil)
			if to := h.States()[0]; to == Down {
				wantDown = []workload.SiteID{0}
			}
			if down := h.Down(); !slices.Equal(down, wantDown) {
				t.Fatalf("down set %v, want %v", down, wantDown)
			}
		})
	}
}

// TestHealthLatencyDemotion drives the EWMA: the first answer seeds it,
// answers whose smoothed RTT is over the threshold count as misses, and a
// down site heals only once the EWMA has decayed below it.
func TestHealthLatencyDemotion(t *testing.T) {
	ok := []bool{true, true}
	rtts := func(site0 time.Duration) []time.Duration { return []time.Duration{site0, time.Millisecond} }

	h := NewHealth(2, 10*time.Millisecond)
	if last, ewma := h.Latency(0); last != 0 || ewma != 0 {
		t.Fatalf("latency before any answer: %v, %v", last, ewma)
	}
	// Three slow answers walk Up → Suspect → Suspect → Down at K = 3.
	for k, want := range []SiteState{Suspect, Suspect, Down} {
		moves, demoted := h.Step(ok, rtts(50*time.Millisecond))
		if st := h.States()[0]; st != want || demoted != 1 {
			t.Fatalf("slow answer %d: %v with %d demoted, want %v with 1", k+1, st, demoted, want)
		}
		if last, ewma := h.Latency(0); k == 0 && (last != 0.05 || ewma != 0.05) {
			t.Fatalf("the first sample did not seed the EWMA: last %v, ewma %v", last, ewma)
		}
		if k == 2 && !slices.ContainsFunc(moves, Transition.Edge) {
			t.Fatal("the third slow answer crossed no edge")
		}
	}
	// The EWMA decays by 1-latencyAlpha per 1 ms answer: 35.3, 25.0, 17.8
	// and 12.8 ms still fail; 9.2 and 6.8 ms are the okThreshold answers.
	var trail []string
	for k, want := range []SiteState{Down, Down, Down, Down, Down, Recovering} {
		_, demoted := h.Step(ok, rtts(time.Millisecond))
		_, ewma := h.Latency(0)
		trail = append(trail, fmt.Sprintf("%.1f", ewma*1e3))
		if st, wantDemoted := h.States()[0], []int{1, 1, 1, 1, 0, 0}[k]; st != want || demoted != wantDemoted {
			t.Fatalf("fast answer %d (ewma %.2fms): %v with %d demoted, want %v with %d",
				k+1, ewma*1e3, st, demoted, want, wantDemoted)
		}
	}
	if got := strings.Join(trail, " "); got != "35.3 25.0 17.8 12.8 9.2 6.8" {
		t.Fatalf("EWMA trail %s ms", got)
	}
	if moves := h.Commit(); len(moves) != 1 || h.States()[0] != Up {
		t.Fatalf("commit: %v, site 0 %v", moves, h.States()[0])
	}
	if st := h.States()[1]; st != Up {
		t.Fatalf("the fast site was demoted: %v", st)
	}

	// No threshold never demotes, however slow the answer.
	h = NewHealth(1, 0)
	for k := 0; k < 5; k++ {
		if moves, demoted := h.Step([]bool{true}, []time.Duration{time.Hour}); moves != nil || demoted != 0 {
			t.Fatalf("answer %d with no threshold: %v, %d demoted", k+1, moves, demoted)
		}
	}
}

func TestSiteStateString(t *testing.T) {
	var got []string
	for s := Up; s <= Recovering+1; s++ {
		got = append(got, s.String())
	}
	if want := []string{"up", "suspect", "down", "recovering", "SiteState(4)"}; !slices.Equal(got, want) {
		t.Fatalf("names %v, want %v", got, want)
	}
}
