package admission

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestGateVerdicts walks every verdict of the admission law as a step
// machine on a virtual clock — no goroutines, no sleeps, every instant
// chosen: admit, queue, queue_full, deadline on arrival and at grant,
// abandon, and CoDel's sojourn shed once the queue has stood a full
// interval.
func TestGateVerdicts(t *testing.T) {
	var g Gate[int]
	g.limit = minLimit
	var got []string
	grant := func(id int, v Verdict) { got = append(got, fmt.Sprintf("%d:%v", id, v)) }
	offer := func(id int, now, deadline time.Duration, want Verdict, wantQueued bool) {
		t.Helper()
		if v, queued := g.Offer(id, now, deadline); queued != wantQueued || (!queued && v != want) {
			t.Fatalf("Offer(%d, %v) = %v queued=%v, want %v queued=%v", id, now, v, queued, want, wantQueued)
		}
	}
	release := func(now time.Duration, want ...string) {
		t.Helper()
		got = got[:0]
		g.Release(now, grant)
		if !slices.Equal(got, want) {
			t.Fatalf("Release(%v) granted %v, want %v", now, got, want)
		}
	}

	// Free slots admit; a passed deadline sheds on arrival without booking
	// an AIMD shed.
	for id := 1; id <= minLimit; id++ {
		offer(id, 0, noDeadline, Admitted, false)
	}
	offer(100, 0, 0, ShedDeadline, false)
	if g.shedEver || g.Len() != 0 {
		t.Fatalf("doomed arrival booked a shed (%v) or took a seat (len %d)", g.shedEver, g.Len())
	}
	// Every slot taken: arrivals queue up to Cap, then shed as queue_full.
	for id := 5; id < 5+g.Cap(); id++ {
		deadline := noDeadline
		if id == 6 {
			deadline = ms(5)
		}
		offer(id, ms(1), deadline, 0, true)
	}
	offer(55, ms(1), noDeadline, ShedQueue, false)
	// Abandon takes a queued request out and frees its seat; an admitted
	// or already-abandoned one is not queued.
	if !g.Abandon(54, ms(1), Aborted) || g.Len() != g.Cap()-1 {
		t.Fatalf("Abandon(54) did not free a seat: len %d", g.Len())
	}
	if g.Abandon(54, ms(1), Aborted) || g.Abandon(1, ms(1), Aborted) {
		t.Fatal("Abandon found a request that is not queued")
	}
	offer(56, ms(2), noDeadline, 0, true)

	// A short wait admits. A 9 ms sojourn arms CoDel without shedding; the
	// entry whose deadline passed while it waited sheds at its grant, and
	// the slot goes on to the next.
	release(ms(3), "5:admitted")
	release(ms(10), "6:deadline", "7:admitted")
	// The queue has stood above target for a full interval: CoDel sheds
	// one, and the √-law spacing lets the next through.
	release(ms(110), "8:sojourn", "9:admitted")
	if !g.codel.dropping {
		t.Fatal("CoDel not dropping after a full interval above target")
	}
	// A deadline lapsing in the queue is a shed AIMD books.
	if !g.Abandon(10, ms(120), ShedDeadline) || g.lastShed != ms(120) {
		t.Fatalf("deadline abandon: lastShed %v, want %v", g.lastShed, ms(120))
	}
}

// TestGateAIMD pins the concurrency limit's tuner at exact instants: the
// zero Gate starts at initialLimit, each clean codelInterval adds one,
// sheds halve it at most once per interval down to minLimit, and growth
// waits a full interval after the last shed.
func TestGateAIMD(t *testing.T) {
	var g Gate[int]
	limitAt := func(now time.Duration, want int) {
		t.Helper()
		// A doomed arrival sheds without booking: a pure clock step.
		if v, _ := g.Offer(-1, now, 0); v != ShedDeadline || g.limit != want {
			t.Fatalf("at %v: limit %d (verdict %v), want %d", now, g.limit, v, want)
		}
	}
	shedAt := func(now time.Duration, want int) {
		t.Helper()
		if v, _ := g.Offer(-1, now, noDeadline); v != ShedQueue || g.limit != want {
			t.Fatalf("shed at %v: limit %d (verdict %v), want %d", now, g.limit, v, want)
		}
	}

	limitAt(0, initialLimit)
	limitAt(ms(99), initialLimit)
	limitAt(ms(100), initialLimit+1)
	limitAt(ms(199), initialLimit+1)
	limitAt(ms(200), initialLimit+2)

	// Fill every slot and seat at 250 ms; each further arrival sheds.
	for id := 0; id < initialLimit+2+g.Cap(); id++ {
		g.Offer(id, ms(250), noDeadline)
	}
	shedAt(ms(250), (initialLimit+2)/2)
	shedAt(ms(349), (initialLimit+2)/2) // same interval: no second halving
	shedAt(ms(350), (initialLimit+2)/4)
	shedAt(ms(450), minLimit)
	shedAt(ms(550), minLimit) // floor

	limitAt(ms(649), minLimit) // a shed 99 ms ago blocks growth
	limitAt(ms(650), minLimit+1)
	limitAt(ms(749), minLimit+1)
	limitAt(ms(750), minLimit+2)
}
