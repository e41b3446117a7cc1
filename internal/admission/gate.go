package admission

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// noDeadline is the deadline of a request that carries none.
const noDeadline = time.Duration(math.MaxInt64)

// Gate is one endpoint class's admission law as a step machine: an
// AIMD-tuned concurrency limit in front of a bounded FIFO wait queue,
// policed by CoDel sojourn shedding and the requests' deadlines. It holds
// no lock, reads no clock and never blocks: every step takes `now`, and
// deadlines sit on the same timeline. The live Endpoint drives it under a
// mutex on the server's clock; the overload study drives it from its event
// heap on a virtual one. T identifies a request to the caller. The zero
// Gate is ready to use.
type Gate[T comparable] struct {
	codel  codel
	limit  int // AIMD concurrency limit; 0 until the first Offer
	active int
	queue  []entry[T]

	// AIMD bookkeeping: multiplicative decrease at most once per
	// codelInterval, additive increase after a full codelInterval without
	// sheds.
	lastShed     time.Duration
	lastDecrease time.Duration
	lastIncrease time.Duration
	shedEver     bool
}

// entry is one queued request.
type entry[T comparable] struct {
	id            T
	enq, deadline time.Duration
}

// Offer runs request id's arrival at now. A request whose deadline has
// passed sheds as ShedDeadline; a free slot with nobody waiting admits it
// (the caller then owes one Release); a full queue sheds it as ShedQueue.
// Otherwise it waits: queued is true, v means nothing, and the verdict
// comes from a later Release unless the caller abandons it first.
func (g *Gate[T]) Offer(id T, now, deadline time.Duration) (v Verdict, queued bool) {
	g.limit = cmp.Or(g.limit, initialLimit)
	g.grow(now)
	switch {
	case now >= deadline:
		// Doomed on arrival: shed before spending any queue slot on it.
		return ShedDeadline, false
	case g.active < g.limit && len(g.queue) == 0:
		g.active++
		// An empty queue is a zero sojourn: feeds CoDel's "below target"
		// reset so shedding disarms as soon as the standing queue clears.
		g.codel.onDequeue(0, now)
		return Admitted, false
	case len(g.queue) >= maxQueue:
		g.shed(now)
		return ShedQueue, false
	}
	g.queue = append(g.queue, entry[T]{id: id, enq: now, deadline: deadline})
	return Admitted, true
}

// Release frees one admitted request's slot at now and hands free slots to
// the queue in FIFO order, passing each dequeued request's verdict to
// grant: ShedSojourn when CoDel sees a standing queue, ShedDeadline when
// the request's deadline has passed, else Admitted — the request holds a
// slot and its caller owes one Release.
func (g *Gate[T]) Release(now time.Duration, grant func(id T, v Verdict)) {
	g.active--
	for g.active < g.limit && len(g.queue) > 0 {
		e := g.queue[0]
		g.queue[0] = entry[T]{}
		g.queue = g.queue[1:]
		shed := g.codel.onDequeue(now-e.enq, now)
		if shed {
			g.shed(now)
		}
		v := Admitted
		switch {
		case now >= e.deadline:
			v = ShedDeadline
		case shed:
			v = ShedSojourn
		default:
			g.active++
		}
		grant(e.id, v)
	}
}

// Abandon takes queued request id out of the queue at now: its client left
// (Aborted), or its deadline lapsed while it waited (ShedDeadline, which
// AIMD books as a shed). It reports false when id is not queued — a
// Release already dequeued it, and that verdict stands.
func (g *Gate[T]) Abandon(id T, now time.Duration, v Verdict) bool {
	for i := range g.queue {
		if g.queue[i].id == id {
			g.queue = slices.Delete(g.queue, i, i+1)
			if v.Shed() {
				g.shed(now)
			}
			return true
		}
	}
	return false
}

// Len returns the number of queued requests.
func (g *Gate[T]) Len() int { return len(g.queue) }

// Cap returns the queue bound: an arrival that finds Cap requests queued
// sheds as ShedQueue.
func (g *Gate[T]) Cap() int { return maxQueue }

// shed books one shed for AIMD: multiplicative decrease, at most once per
// control interval, floored at minLimit.
func (g *Gate[T]) shed(now time.Duration) {
	g.lastShed, g.shedEver = now, true
	if now-g.lastDecrease < codelInterval {
		return
	}
	g.lastDecrease = now
	g.limit = max(g.limit/2, minLimit)
}

// grow books the additive increase: +1 after a full interval with no
// sheds, capped at maxLimit.
func (g *Gate[T]) grow(now time.Duration) {
	if (g.shedEver && now-g.lastShed < codelInterval) || now-g.lastIncrease < codelInterval {
		return
	}
	g.lastIncrease = now
	g.limit = min(g.limit+1, maxLimit)
}
