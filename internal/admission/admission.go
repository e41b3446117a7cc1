// Package admission is the serving stack's overload protection. The
// paper's objective D (Eq. 4/5) assumes stable queues; as utilization
// approaches capacity the queueing term diverges and a real cluster does
// not degrade gracefully — it collapses, and naive client retries then
// hold it collapsed long after the triggering spike ends (a metastable
// failure). This package supplies the server side of the defense: a
// bounded, deadline-aware admission queue per endpoint class, shedding by
// CoDel-style sojourn time (latency over a target, not queue length),
// per-endpoint concurrency limits with an AIMD auto-tuner, 429 responses
// with a seeded-jitter Retry-After hint, and a brownout controller that
// degrades page fidelity under sustained shed pressure before the server
// refuses outright.
//
// Every control law here takes its clock as a parameter: Gate, the
// admission law, is a step machine on explicit `now` values, and the only
// wall-clock reads are the live Endpoint's conversion of a request's
// deadline, its wait timer and the server's nil-clock fallback. The live
// server runs the laws under real time; the bit-reproducible
// experiments.Overload study drives the same Gate and Retry-After jitter
// (RetryHint) on a virtual clock. Brownout is live-only.
package admission

import (
	"math"
	"strconv"
	"time"
)

// HTTP header vocabulary shared between client and servers.
const (
	// DeadlineHeader carries the client's absolute end-to-end deadline as
	// Unix nanoseconds. Client and servers share a machine (loopback
	// cluster), so one clock domain suffices; a server uses it to shed
	// work that is already doomed to miss its deadline instead of serving
	// a response nobody will wait for.
	DeadlineHeader = "X-Repl-Deadline"
	// RetryAfterMillisHeader is the jittered retry hint at millisecond
	// precision. The standard Retry-After header is whole seconds — far
	// too coarse for loopback timescales — so servers send both and the
	// client prefers this one.
	RetryAfterMillisHeader = "X-Repl-Retry-After-Ms"
	// BrownoutHeader reports the fidelity tier a page was served at
	// (absent or 0 = full fidelity; see Brownout).
	BrownoutHeader = "X-Repl-Brownout"
)

// FormatDeadline renders an absolute deadline for DeadlineHeader.
func FormatDeadline(t time.Time) string {
	return strconv.FormatInt(t.UnixNano(), 10)
}

// ParseDeadline parses a DeadlineHeader value; ok is false for absent or
// malformed values.
func ParseDeadline(s string) (time.Time, bool) {
	if s == "" {
		return time.Time{}, false
	}
	ns, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, false
	}
	return time.Unix(0, ns), true
}

// Config configures one server's admission control.
type Config struct {
	// Seed seeds the Retry-After jitter stream.
	Seed uint64
}

// The admission laws' parameters.
const (
	// codelTarget is the CoDel sojourn target: queueing delay persistently
	// above it sheds load — far above a healthy loopback handler, far below
	// any client deadline worth honoring.
	codelTarget = 5 * time.Millisecond
	// codelInterval is the CoDel control interval (how long sojourn must stay
	// above codelTarget before shedding starts, and the base spacing of
	// subsequent sheds); it also spaces AIMD's decreases and increases.
	codelInterval = 100 * time.Millisecond
	// initialLimit is each endpoint's starting concurrency limit; the AIMD
	// tuner moves it within [minLimit, maxLimit] — halving on shed pressure,
	// adding one per clean interval.
	initialLimit = 32
	minLimit     = 4
	maxLimit     = 256
	// maxQueue bounds each endpoint's wait queue; arrivals beyond it are shed
	// instantly (the queue bound is the backstop — CoDel should act first).
	// At the overload study's 5 ms service time it is one 250 ms drain
	// window.
	maxQueue = 50
	// retryAfter is the nominal retry hint sent with a 429; the actual value
	// is jittered in [d, 3d/2) on a seeded stream so a fleet of budgeted
	// clients does not return in lockstep.
	retryAfter = 50 * time.Millisecond
	// brownoutUp / brownoutDown are the shed-rate thresholds (fraction of
	// decisions in a brownoutWindow that were sheds) for raising and lowering
	// the degradation tier.
	brownoutUp     = 0.10
	brownoutDown   = 0.01
	brownoutWindow = 500 * time.Millisecond
)

// codel is the Controlled-Delay shedding law on queue sojourn times,
// adapted from Nichols & Jacobson: shedding starts only after sojourn has
// stayed above codelTarget for a full codelInterval (a standing queue, not
// a burst), and while it persists, sheds are spaced codelInterval/√count
// apart — gentle pressure that tightens the longer the overload lasts. It
// takes explicit `now` values (any monotone origin); the zero value is
// ready, and the Gate that holds it serializes access.
type codel struct {
	firstAbove time.Duration // when sojourn first exceeded codelTarget
	haveFirst  bool
	dropping   bool
	dropNext   time.Duration
	count      int
}

// onDequeue observes one request's queue sojourn at dequeue time and
// reports whether to shed it.
func (c *codel) onDequeue(sojourn, now time.Duration) bool {
	if sojourn < codelTarget {
		// Below target: the standing queue is gone; disarm.
		c.haveFirst = false
		c.dropping = false
		c.count = 0
		return false
	}
	if !c.haveFirst {
		c.haveFirst = true
		c.firstAbove = now + codelInterval
		return false
	}
	if !c.dropping {
		if now < c.firstAbove {
			return false
		}
		// Sojourn has been above target for a full interval: start
		// shedding.
		c.dropping = true
		c.count = 1
		c.dropNext = now + c.nextGap()
		return true
	}
	if now < c.dropNext {
		return false
	}
	c.count++
	c.dropNext = now + c.nextGap()
	return true
}

// nextGap is the codelInterval/√count control law: the longer the overload
// persists, the closer together the sheds. count is the sheds so far, so
// the upcoming (count+1-th) shed is codelInterval/√(count+1) away.
func (c *codel) nextGap() time.Duration {
	return time.Duration(float64(codelInterval) / math.Sqrt(float64(c.count+1)))
}
