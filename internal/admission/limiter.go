package admission

import (
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

// waiter is one queued request.
type waiter struct {
	ch      chan struct{} // buffered(1); receives the grant
	enq     time.Duration
	granted bool
	gone    bool // abandoned while queued; skip at grant time
}

// Endpoint is one endpoint class's bounded admission queue: an AIMD-tuned
// concurrency limit in front of a FIFO wait queue policed by CoDel sojourn
// shedding. The clock is whatever monotone origin the caller's `now`
// values use.
type Endpoint struct {
	mu    sync.Mutex
	codel *CoDel
	limit int
	act   int
	queue []*waiter

	// AIMD bookkeeping: multiplicative decrease at most once per Interval,
	// additive increase after a full Interval without sheds.
	lastShed     time.Duration
	lastDecrease time.Duration
	lastIncrease time.Duration
	shedEver     bool
}

// NewEndpoint builds an endpoint queue; the queue's laws take no settings
// from cfg.
func NewEndpoint(cfg Config) *Endpoint {
	return &Endpoint{
		codel: NewCoDel(),
		limit: initialLimit,
	}
}

// Limit returns the current AIMD concurrency limit.
func (e *Endpoint) Limit() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.limit
}

// Active returns the in-flight request count (diagnostics and tests).
func (e *Endpoint) Active() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.act
}

// QueueLen returns the current wait-queue depth.
func (e *Endpoint) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, w := range e.queue {
		if !w.gone {
			n++
		}
	}
	return n
}

// Admit runs one request through the admission gate. clock supplies `now`
// on the endpoint's monotone timeline; deadline (zero = none) is the
// request's absolute wall-clock deadline; ctx aborts the wait when the
// client disconnects. On Admitted the caller must call release() exactly
// once when the request finishes.
func (e *Endpoint) Admit(ctx context.Context, clock func() time.Duration, deadline time.Time) (v Verdict, release func()) {
	now := clock()
	e.mu.Lock()
	e.growLocked(now)
	// Doomed on arrival: shed before spending any queue slot on it.
	//repllint:allow determinism — the deadline is an absolute wall-clock instant from X-Repl-Deadline; the control laws run on clock()
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		e.mu.Unlock()
		return ShedDeadline, nil
	}
	if e.act < e.limit && len(e.queue) == 0 {
		e.act++
		// An empty queue is a zero sojourn: feeds CoDel's "below target"
		// reset so shedding disarms as soon as the standing queue clears.
		e.codel.OnDequeue(0, now)
		e.mu.Unlock()
		return Admitted, e.releaseFunc()
	}
	if len(e.queue) >= maxQueue {
		e.shedLocked(now)
		e.mu.Unlock()
		return ShedQueue, nil
	}
	w := &waiter{ch: make(chan struct{}, 1), enq: now}
	e.queue = append(e.queue, w)
	e.mu.Unlock()

	var deadlineC <-chan time.Time
	if !deadline.IsZero() {
		//repllint:allow determinism — a queued waiter must wake at its wall-clock deadline; Endpoint is the live HTTP gate, the virtual-clock study drives only CoDel
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		deadlineC = t.C
	}
	select {
	case <-w.ch:
		// Granted: the slot is ours, but the wait itself may disqualify
		// the request — CoDel on the observed sojourn, deadline on the
		// wall clock.
		now = clock()
		e.mu.Lock()
		sojourn := now - w.enq
		shed := e.codel.OnDequeue(sojourn, now)
		if shed {
			e.shedLocked(now)
		}
		//repllint:allow determinism — same wall-clock deadline re-checked at dequeue; sojourn and CoDel above use clock()
		expired := !deadline.IsZero() && !time.Now().Before(deadline)
		if shed || expired {
			e.act--
			e.grantLocked()
			e.mu.Unlock()
			if expired {
				return ShedDeadline, nil
			}
			return ShedSojourn, nil
		}
		e.mu.Unlock()
		return Admitted, e.releaseFunc()
	case <-ctx.Done():
		return e.abandon(w, clock, Aborted)
	case <-deadlineC:
		return e.abandon(w, clock, ShedDeadline)
	}
}

// abandon marks a queued waiter gone, unless a grant raced in — then the
// grant wins and the request proceeds down the granted path's checks.
func (e *Endpoint) abandon(w *waiter, clock func() time.Duration, v Verdict) (Verdict, func()) {
	e.mu.Lock()
	if w.granted {
		// The grant arrived concurrently; we own a slot. For an aborted
		// client the work is pointless — give the slot back. For a
		// deadline it is equally doomed.
		e.act--
		e.grantLocked()
		e.mu.Unlock()
		return v, nil
	}
	w.gone = true
	if v == ShedDeadline {
		e.shedLocked(clock())
	}
	e.mu.Unlock()
	return v, nil
}

// releaseFunc returns the once-only slot release for an admitted request.
func (e *Endpoint) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			e.mu.Lock()
			e.act--
			e.grantLocked()
			e.mu.Unlock()
		})
	}
}

// grantLocked hands freed slots to queued waiters, skipping abandoned
// ones. Caller holds e.mu.
func (e *Endpoint) grantLocked() {
	for e.act < e.limit && len(e.queue) > 0 {
		w := e.queue[0]
		e.queue = e.queue[1:]
		if w.gone {
			continue
		}
		w.granted = true
		e.act++
		w.ch <- struct{}{}
	}
}

// shedLocked books one shed for AIMD: multiplicative decrease, at most
// once per control interval. Caller holds e.mu.
func (e *Endpoint) shedLocked(now time.Duration) {
	e.lastShed, e.shedEver = now, true
	if now-e.lastDecrease < codelInterval {
		return
	}
	e.lastDecrease = now
	e.limit /= 2
	if e.limit < minLimit {
		e.limit = minLimit
	}
}

// growLocked books the additive increase: +1 after a full interval with no
// sheds. Caller holds e.mu.
func (e *Endpoint) growLocked(now time.Duration) {
	if e.shedEver && now-e.lastShed < codelInterval {
		return
	}
	if now-e.lastIncrease < codelInterval {
		return
	}
	e.lastIncrease = now
	if e.limit < maxLimit {
		e.limit++
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
