package experiments

import (
	"container/heap"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/admission"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Overload scenario constants. The arithmetic is the study: the server's
// capacity is overloadCapacity req/s, the base open-loop arrival rate is
// 0.6× capacity, and a 2-second flash crowd (a faults.LoadSpike) multiplies
// arrivals by 10×. Without protections every timed-out request respawns as
// overloadRetries retries, so the post-spike effective load is
// base·(1+R) = 360 req/s > capacity — the system stays collapsed although
// the offered load (120 req/s) is comfortably below capacity. That is the
// metastable failure. With admission control, retry budgets and deadline
// propagation on, the backlog is bounded by the admission queue (its bound
// times the service time is one drain window) and the budget caps
// amplification, so recovery is fast and structural.
const (
	// overloadCapacity is the server's service rate in requests/second.
	overloadCapacity = 200.0
	// overloadBaseRate is the open-loop base arrival rate (0.6× capacity).
	overloadBaseRate = 120.0
	// overloadSpikeFactor multiplies arrivals during the flash crowd.
	overloadSpikeFactor = 10.0
	// overloadRetries is the unprotected client's retry count per request.
	overloadRetries = 2
	// overloadBudgetRatio / overloadBudgetCap parameterize the shared retry
	// budget: 0.1 token earned per success caps steady-state amplification
	// at ~1.1× offered load.
	overloadBudgetRatio = 0.1
	overloadBudgetCap   = 10.0
)

// Overload timing (all on the virtual clock — the sim never reads wall
// time, which is what makes the study bit-reproducible per seed).
const (
	overloadDuration   = 30 * time.Second
	overloadSpikeStart = 5 * time.Second
	overloadSpikeEnd   = 7 * time.Second
	// overloadService is one request's service time (1/capacity).
	overloadService = 5 * time.Millisecond
	// overloadDeadline is each attempt's end-to-end client deadline,
	// propagated to the server in the protected pass.
	overloadDeadline = 500 * time.Millisecond
	// overloadBackoff is the client's base retry backoff (doubled per
	// attempt, jittered in [d/2, d)).
	overloadBackoff = 50 * time.Millisecond
	// overloadSettle is how long after the spike the off pass is given
	// before its steady-state goodput is measured — generous, so the
	// collapse verdict measures the metastable equilibrium, not the tail of
	// the spike itself.
	overloadSettle = 3 * time.Second
)

// stream labels for the overload study's derivations (disjoint from the
// runner's 101+, the client's 401+, the flash crowd's 601+, the scrub
// study's 701+ and the admission server's 801).
const (
	overloadArrivalStream uint64 = iota + 811
	overloadClientStream
	overloadShedStream
)

// overloadStreams derives run r's streams for one pass (mode 0 off, 1 on):
// arrivals, client jitter and the gate's shed draws
// (TestStudyStreamsKnownAnswer pins them).
func overloadStreams(root *rng.Stream, r int, mode uint64) (arrivals, jitter, shed *rng.Stream) {
	return root.Split(overloadArrivalStream, uint64(r), mode),
		root.Split(overloadClientStream, uint64(r), mode),
		root.Split(overloadShedStream, uint64(r), mode)
}

// OverloadPass is one pass's accounting (protections off or on).
type OverloadPass struct {
	// Requests counts new page requests; Attempts includes every retry.
	Requests int
	Attempts int
	// Amplification is Attempts/Requests — the retry storm factor.
	Amplification float64
	// Goodput counts responses delivered within their deadline.
	Goodput int
	// Sheds counts 429s (queue bound, sojourn law, doomed deadline).
	Sheds int
	// DeadlineServed counts responses the server completed after the
	// client's deadline — pure wasted work. Deadline propagation makes this
	// structurally zero in the protected pass.
	DeadlineServed int
	// PeakQueue is the deepest the server queue ever got: the worker's
	// queue when unprotected, the admission gate's when protected.
	PeakQueue int
	// PostSpikeGoodput is the mean goodput rate (req/s) from
	// SpikeEnd+Settle to the end of the run — the steady state the system
	// landed in after the crowd left.
	PostSpikeGoodput float64
	// RecoverMs is how long after the spike ended the trailing-1s goodput
	// first reached 95% of the base offered rate; -1 = never within the
	// run. The protected bound is one drain window (drainWindow).
	RecoverMs int64
	// GoodputPerSec is the per-second goodput timeline (len =
	// Duration/1s), the figure's raw series.
	GoodputPerSec []int
}

// OverloadRun is one run: the same seeded arrival process played twice,
// once with every protection off and once with the full admission stack
// on.
type OverloadRun struct {
	Run int
	Off OverloadPass
	On  OverloadPass
}

// OverloadResult is the study's output: per-run accounting plus the
// goodput-over-time figure that makes the metastable collapse visible.
type OverloadResult struct {
	Runs     []OverloadRun
	Timeline *stats.Figure
}

// overloadMaxQueue is the production gate's queue bound; with 5 ms service
// it is a 250 ms drain window.
var overloadMaxQueue = new(admission.Gate[*simReq]).Cap()

// drainWindow is the protected recovery bound: the time to serve a full
// admission queue.
func drainWindow() time.Duration {
	return time.Duration(overloadMaxQueue) * overloadService
}

// Overload runs the metastable-failure study: an open-loop arrival ramp
// (base rate, 10× flash crowd, base rate again) against a single server,
// as a pure event-driven simulation on a virtual clock. The "off" pass has
// an unbounded FIFO queue, no deadline propagation and unbudgeted retries:
// after the crowd leaves, timed-out requests keep respawning retries and
// the effective load stays above capacity — goodput pins near zero for the
// rest of the run even though offered load is 60% of capacity. The "on"
// pass puts the live cluster's admission law (admission.Gate: AIMD slots,
// the bounded queue, CoDel and deadline sheds) in front of the server, sheds
// with the live Retry-After jitter (admission.RetryHint) and spends from the
// clients' shared retry budget, and recovers within one drain window. Both
// passes consume disjoint Split streams of the run seed, so the whole
// result — tables and figure — is bit-reproducible.
func Overload(opts Options) (*OverloadResult, error) {
	runs := make([]OverloadRun, max(opts.Runs, 0))
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		r := env.r
		root := rng.New(opts.Seed)
		off := simOverload(root, r, false)
		on := simOverload(root, r, true)
		runs[r] = OverloadRun{Run: r, Off: off, On: on}
		for s, g := range off.GoodputPerSec {
			col.add(r, "Protections off", float64(s), float64(g))
		}
		for s, g := range on.GoodputPerSec {
			col.add(r, "Protections on", float64(s), float64(g))
		}
		opts.progressf("overload run %d: off — post-spike %.0f req/s (recover %dms, amp %.2f); on — post-spike %.0f req/s (recover %dms, amp %.2f, sheds %d, deadline-served %d)",
			r, off.PostSpikeGoodput, off.RecoverMs, off.Amplification,
			on.PostSpikeGoodput, on.RecoverMs, on.Amplification, on.Sheds, on.DeadlineServed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig := col.figure("Overload: goodput through a 10x flash crowd",
		"seconds", []string{"Protections off", "Protections on"})
	fig.YLabel = "goodput (requests/s served within deadline)"
	return &OverloadResult{Runs: runs, Timeline: fig}, nil
}

// simEvent kinds, processed in (time, seq) order.
const (
	evArrivalGen = iota // draw the next new request
	evAttempt           // one attempt reaches the server
	evDone              // the server finished serving
	evTimeout           // the client's deadline lapsed
)

// simReq is one request attempt's state.
type simReq struct {
	attempt  int // 0 = first try
	deadline time.Duration
	// responded: the server answered (success or shed) before the client
	// timed out; the timeout event then does nothing.
	responded bool
	// abandoned: the client timed out; a later completion is wasted work.
	abandoned bool
}

// simEvent is one heap entry.
type simEvent struct {
	t    time.Duration
	seq  int
	kind int
	req  *simReq
}

// eventHeap is a container/heap min-heap of events ordered by (time,
// insertion sequence) — a strict total order, so the pop sequence is the
// same for any correct heap.
type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any {
	s := *h
	n := len(s) - 1
	ev := s[n]
	s[n] = simEvent{} // drop the request pointer for the GC
	*h = s[:n]
	return ev
}

// overloadSim is one pass's world state: one FIFO worker serving
// overloadService per request. The protected pass puts the admission gate
// in front of it; a request reaches the worker's queue once the gate grants
// it one of its `limit` slots, and frees the slot when the worker is done
// with it.
type overloadSim struct {
	protected bool
	events    eventHeap
	seq       int
	queue     []*simReq // the worker's FIFO
	busy      bool
	gate      admission.Gate[*simReq] // the protected pass's only
	budget    retryBudget             // the protected pass's only
	arrivals  *rng.Stream
	jitter    *rng.Stream
	shed      *rng.Stream
	plan      *faults.Plan
	pass      OverloadPass
	// goodTimes records each within-deadline completion instant for the
	// trailing-window recovery scan.
	goodTimes []time.Duration
}

// simOverload plays one pass of the arrival ramp for run r.
func simOverload(root *rng.Stream, r int, protected bool) OverloadPass {
	mode := uint64(0)
	if protected {
		mode = 1
	}
	s := &overloadSim{
		protected: protected,
		plan: &faults.Plan{LoadSpikes: []faults.LoadSpike{{
			Window: faults.Window{Start: overloadSpikeStart, End: overloadSpikeEnd},
			Factor: overloadSpikeFactor,
		}}},
		budget: newRetryBudget(overloadBudgetRatio, overloadBudgetCap),
	}
	s.arrivals, s.jitter, s.shed = overloadStreams(root, r, mode)
	s.schedule(0, evArrivalGen, nil)
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(simEvent)
		if ev.t >= overloadDuration {
			break
		}
		switch ev.kind {
		case evArrivalGen:
			s.newRequest(ev.t)
		case evAttempt:
			s.arrive(ev.t, ev.req)
		case evDone:
			s.complete(ev.t, ev.req)
		case evTimeout:
			s.timeout(ev.t, ev.req)
		}
	}
	s.finish()
	return s.pass
}

// schedule pushes an event at t.
func (s *overloadSim) schedule(t time.Duration, kind int, req *simReq) {
	s.seq++
	heap.Push(&s.events, simEvent{t: t, seq: s.seq, kind: kind, req: req})
}

// newRequest issues a fresh request at t and draws the next arrival from
// the current (possibly spiked) rate.
func (s *overloadSim) newRequest(t time.Duration) {
	s.pass.Requests++
	s.schedule(t, evAttempt, &simReq{deadline: t + overloadDeadline})

	rate := s.plan.RateAt(overloadBaseRate, t)
	u := s.arrivals.Float64()
	gap := time.Duration(-math.Log(1-u) / rate * float64(time.Second))
	if gap <= 0 {
		gap = time.Nanosecond
	}
	if next := t + gap; next < overloadDuration {
		s.schedule(next, evArrivalGen, nil)
	}
}

// arrive lands one attempt at the server: straight into the worker's
// queue when unprotected, through the gate when protected.
func (s *overloadSim) arrive(t time.Duration, req *simReq) {
	s.pass.Attempts++
	if !s.protected {
		s.queue = append(s.queue, req)
		s.pass.PeakQueue = max(s.pass.PeakQueue, len(s.queue))
	} else {
		switch v, queued := s.gate.Offer(req, t, req.deadline); {
		case queued:
			s.pass.PeakQueue = max(s.pass.PeakQueue, s.gate.Len())
		case v == admission.Admitted:
			s.queue = append(s.queue, req)
		default:
			s.pass.Sheds++
			s.respondShed(t, req)
			return
		}
	}
	s.schedule(req.deadline, evTimeout, req)
	if !s.busy {
		s.startNext(t)
	}
}

// startNext starts serving the worker's next request. The protected
// worker applies the study's one rule of its own, the handler's part: it
// skips a request whose client has gone and sheds one whose deadline it
// cannot meet, freeing the slot either way.
func (s *overloadSim) startNext(t time.Duration) {
	for len(s.queue) > 0 {
		req := s.queue[0]
		s.queue = s.queue[1:]
		if s.protected && (req.abandoned || t+overloadService > req.deadline) {
			if !req.abandoned {
				s.pass.Sheds++
				s.respondShed(t, req)
			}
			s.release(t)
			continue
		}
		s.busy = true
		s.schedule(t+overloadService, evDone, req)
		return
	}
	s.busy = false
}

// release frees a slot at t: the gate's granted requests join the worker's
// queue, the ones it sheds get their 429.
func (s *overloadSim) release(t time.Duration) {
	s.gate.Release(t, func(req *simReq, v admission.Verdict) {
		if v == admission.Admitted {
			s.queue = append(s.queue, req)
			return
		}
		s.pass.Sheds++
		s.respondShed(t, req)
	})
}

// complete finishes serving a request at t.
func (s *overloadSim) complete(t time.Duration, req *simReq) {
	s.busy = false
	if !req.abandoned && t <= req.deadline {
		req.responded = true
		s.pass.Goodput++
		s.goodTimes = append(s.goodTimes, t)
		if s.protected {
			s.budget.earn()
		}
	} else {
		// The client is long gone: the server burned a service slot on a
		// response nobody received.
		s.pass.DeadlineServed++
	}
	if s.protected {
		s.release(t)
	}
	s.startNext(t)
}

// timeout fires at the client's deadline: if the server has not answered,
// the client abandons the attempt and consults its retry policy.
func (s *overloadSim) timeout(t time.Duration, req *simReq) {
	if req.responded || req.abandoned {
		return
	}
	req.abandoned = true
	if s.protected && s.gate.Abandon(req, t, admission.ShedDeadline) {
		// Still waiting for a slot: the gate's deadline timer sheds it.
		s.pass.Sheds++
	}
	s.retry(t, req, 0)
}

// respondShed delivers a 429 at t with the live admission layer's
// jittered Retry-After hint; the client retries no sooner than the hint.
func (s *overloadSim) respondShed(t time.Duration, req *simReq) {
	req.responded = true
	s.retry(t, req, admission.RetryHint(s.shed))
}

// retry re-issues a failed request after max(backoff, hint), spending from
// the shared budget in the protected pass. Exhausted attempts, an empty
// budget or the end of the run give the request up.
func (s *overloadSim) retry(t time.Duration, req *simReq, hint time.Duration) {
	if req.attempt >= overloadRetries || (s.protected && !s.budget.spend()) {
		return
	}
	d := overloadBackoff << uint(req.attempt)
	wait := d/2 + time.Duration(s.jitter.Uniform(0, float64(d/2)))
	if hint > wait {
		wait = hint
	}
	if issue := t + wait; issue < overloadDuration {
		s.schedule(issue, evAttempt, &simReq{attempt: req.attempt + 1, deadline: issue + overloadDeadline})
	}
}

// retryBudget is the protected clients' shared token bucket that caps
// retry amplification: every success earns ratio tokens (capped at max),
// every retry spends one. With ratio r, total retries can never exceed
// r × successes plus the initial fill, so offered load stays within about
// (1+r)× the original request rate no matter how many requests fail — the
// property that breaks retry storms. The bucket starts full (a cold client
// may retry).
type retryBudget struct {
	tokens, ratio, max float64
}

func newRetryBudget(ratio, max float64) retryBudget {
	return retryBudget{tokens: max, ratio: ratio, max: max}
}

// earn credits one success.
func (b *retryBudget) earn() {
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
}

// spend consumes one retry token, reporting whether the retry may proceed.
func (b *retryBudget) spend() bool {
	// The epsilon forgives float accumulation: ten 0.1-earns sum to just
	// under 1.0, and that token was genuinely earned.
	if b.tokens < 1-1e-9 {
		return false
	}
	b.tokens--
	if b.tokens < 0 {
		b.tokens = 0
	}
	return true
}

// finish derives the pass's summary statistics from the completion record.
func (s *overloadSim) finish() {
	p := &s.pass
	if p.Requests > 0 {
		p.Amplification = float64(p.Attempts) / float64(p.Requests)
	}
	secs := int(overloadDuration / time.Second)
	p.GoodputPerSec = make([]int, secs)
	for _, ct := range s.goodTimes {
		if b := int(ct / time.Second); b < secs {
			p.GoodputPerSec[b]++
		}
	}
	// Steady state after the crowd left.
	from := overloadSpikeEnd + overloadSettle
	span := overloadDuration - from
	n := 0
	for _, ct := range s.goodTimes {
		if ct >= from {
			n++
		}
	}
	p.PostSpikeGoodput = float64(n) / span.Seconds()
	// Recovery: first 100ms-aligned instant after the spike whose trailing
	// 1s window reaches 95% of the base offered rate.
	p.RecoverMs = -1
	want := int(0.95 * overloadBaseRate)
	for at := overloadSpikeEnd; at+time.Second <= overloadDuration; at += 100 * time.Millisecond {
		n := 0
		for _, ct := range s.goodTimes {
			if ct >= at && ct < at+time.Second {
				n++
			}
		}
		if n >= want {
			p.RecoverMs = (at - overloadSpikeEnd).Milliseconds()
			break
		}
	}
}

// Clean reports whether every run met the acceptance bar: the unprotected
// pass stays collapsed after the spike (goodput < 20% of capacity), the
// protected pass recovers within one drain window, caps retry
// amplification at 1.1×, and never serves a deadline-expired response.
func (r *OverloadResult) Clean() bool {
	for _, run := range r.Runs {
		if run.Off.PostSpikeGoodput >= 0.2*overloadCapacity {
			return false
		}
		if run.On.RecoverMs < 0 || run.On.RecoverMs > drainWindow().Milliseconds() {
			return false
		}
		if run.On.Amplification > 1.1 {
			return false
		}
		if run.On.DeadlineServed != 0 {
			return false
		}
	}
	return len(r.Runs) > 0
}

// Write renders the per-run table and the acceptance summary.
func (r *OverloadResult) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-4s %-5s %-9s %-9s %-6s %-8s %-10s %-11s %-9s %s\n",
		"run", "pass", "requests", "goodput", "amp", "sheds", "deadsrvd", "post-spike", "recover", "peakq"); err != nil {
		return err
	}
	row := func(run int, name string, p *OverloadPass) error {
		rec := "never"
		if p.RecoverMs >= 0 {
			rec = fmt.Sprintf("%dms", p.RecoverMs)
		}
		_, err := fmt.Fprintf(w, "%-4d %-5s %-9d %-9d %-6.2f %-8d %-10d %-11.0f %-9s %d\n",
			run, name, p.Requests, p.Goodput, p.Amplification, p.Sheds,
			p.DeadlineServed, p.PostSpikeGoodput, rec, p.PeakQueue)
		return err
	}
	for _, run := range r.Runs {
		if err := row(run.Run, "off", &run.Off); err != nil {
			return err
		}
		if err := row(run.Run, "on", &run.On); err != nil {
			return err
		}
	}
	verdict := "FAILED"
	if r.Clean() {
		verdict = "ok"
	}
	_, err := fmt.Fprintf(w, "overload study: %s — unprotected pass metastably collapsed after the spike; protections recovered within %v at ≤1.1x amplification with zero deadline-expired responses\n",
		verdict, drainWindow())
	return err
}
