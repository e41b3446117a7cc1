package admission

import (
	"cmp"
	"context"
	"sync"
	"time"
)

// Verdict is the outcome of one admission decision.
type Verdict int

const (
	// Admitted lets the request through; the caller must release the slot.
	Admitted Verdict = iota
	// ShedQueue rejects instantly: the wait queue is at its bound.
	ShedQueue
	// ShedSojourn rejects at dequeue: the CoDel law saw a standing queue.
	ShedSojourn
	// ShedDeadline rejects doomed work: the request's propagated deadline
	// had already passed on arrival, at its grant, or while it waited.
	ShedDeadline
	// Aborted means the client went away while queued (context canceled);
	// no response is owed.
	Aborted
)

// String names a verdict for counters and journal events.
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case ShedQueue:
		return "queue_full"
	case ShedSojourn:
		return "sojourn"
	case ShedDeadline:
		return "deadline"
	case Aborted:
		return "aborted"
	}
	return "unknown"
}

// Shed reports whether the verdict is a load-shedding rejection (one that
// should answer 429).
func (v Verdict) Shed() bool {
	return v == ShedQueue || v == ShedSojourn || v == ShedDeadline
}

// Endpoint is one endpoint class's live admission gate: the Gate law
// behind a mutex, each queued request blocked on its own channel until the
// law's verdict, its client's disconnect or its deadline. The clock is
// whatever monotone origin the caller's `now` values use.
type Endpoint struct {
	mu   sync.Mutex
	gate Gate[*waiter]
}

// waiter is one request through an Endpoint.
type waiter struct {
	e        *Endpoint
	clock    func() time.Duration
	verdict  chan Verdict // buffered(1), made when queued; the gate's verdict
	released bool         // guarded by e.mu
}

// NewEndpoint builds an endpoint queue; the queue's laws take no settings
// from cfg.
func NewEndpoint(cfg Config) *Endpoint { return &Endpoint{} }

// Limit returns the current AIMD concurrency limit.
func (e *Endpoint) Limit() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return cmp.Or(e.gate.limit, initialLimit)
}

// Active returns the in-flight request count (diagnostics and tests).
func (e *Endpoint) Active() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gate.active
}

// QueueLen returns the current wait-queue depth.
func (e *Endpoint) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gate.Len()
}

// Admit runs one request through the admission gate. clock supplies `now`
// on the endpoint's monotone timeline; deadline (zero = none) is the
// request's absolute wall-clock deadline; ctx aborts the wait when the
// client disconnects. On Admitted the caller must call release() exactly
// once when the request finishes.
func (e *Endpoint) Admit(ctx context.Context, clock func() time.Duration, deadline time.Time) (v Verdict, release func()) {
	now := clock()
	dl, left := noDeadline, time.Duration(0)
	if !deadline.IsZero() {
		//repllint:allow determinism — X-Repl-Deadline is an absolute wall-clock instant; this one read puts it on clock()'s timeline, where the law runs
		left = time.Until(deadline)
		dl = now + left
	}
	w := &waiter{e: e, clock: clock}
	e.mu.Lock()
	v, queued := e.gate.Offer(w, now, dl)
	if queued {
		w.verdict = make(chan Verdict, 1)
	}
	e.mu.Unlock()
	if !queued {
		return v, w.slot(v)
	}

	var expire <-chan time.Time
	if dl != noDeadline {
		//repllint:allow determinism — a queued waiter wakes when its deadline lapses, as read above
		t := time.NewTimer(left)
		defer t.Stop()
		expire = t.C
	}
	select {
	case v := <-w.verdict:
		return v, w.slot(v)
	case <-ctx.Done():
		return e.abandon(w, Aborted)
	case <-expire:
		return e.abandon(w, ShedDeadline)
	}
}

// abandon takes a queued waiter out of the gate, unless a verdict raced in
// first — then it is already buffered, so the receive cannot block. An
// admitted one gives its slot straight back: the work is as pointless as
// the reason the wait ended.
func (e *Endpoint) abandon(w *waiter, v Verdict) (Verdict, func()) {
	now := w.clock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.gate.Abandon(w, now, v) && <-w.verdict == Admitted {
		e.gate.Release(now, grant)
	}
	return v, nil
}

// grant delivers the gate's verdict to a queued waiter; the buffered
// channel never blocks the releasing caller.
func grant(w *waiter, v Verdict) { w.verdict <- v }

// slot returns the once-only slot release an Admitted verdict owes, nil
// for any other.
func (w *waiter) slot(v Verdict) func() {
	if v != Admitted {
		return nil
	}
	return w.release
}

// release frees w's slot, handing it to the queue.
func (w *waiter) release() {
	now := w.clock()
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	if !w.released {
		w.released = true
		w.e.gate.Release(now, grant)
	}
}

// Brownout is the degradation controller: it watches the shed rate over a
// sliding window and walks a fidelity tier up (drop low-weight optional
// content, then all of it) under sustained pressure, back down with
// hysteresis once pressure clears. Tier 0 is full fidelity; MaxTier is
// maximal degradation short of refusing.
type Brownout struct {
	mu     sync.Mutex
	tier   int
	start  time.Duration // current window's start
	admits int
	sheds  int
}

// MaxTier is the deepest brownout tier (drop every optional reference).
const MaxTier = 2

// Tier returns the current degradation tier.
func (b *Brownout) Tier() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tier
}

// Observe books one admission decision (shed or not) at `now` and returns
// the tier along with whether this observation changed it. Window rollover
// happens here: when the observation window is complete, the shed rate
// decides the walk direction and the counters reset.
func (b *Brownout) Observe(shed bool, now time.Duration) (tier int, changed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if shed {
		b.sheds++
	} else {
		b.admits++
	}
	if now-b.start < brownoutWindow {
		return b.tier, false
	}
	total := b.sheds + b.admits
	rate := 0.0
	if total > 0 {
		rate = float64(b.sheds) / float64(total)
	}
	prev := b.tier
	switch {
	case rate > brownoutUp && b.tier < MaxTier:
		b.tier++
	case rate < brownoutDown && b.tier > 0:
		b.tier--
	}
	b.start = now
	b.sheds, b.admits = 0, 0
	return b.tier, b.tier != prev
}
