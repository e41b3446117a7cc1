package httpsim

import "math"

// fluidQueue models server occupancy as a fluid backlog: each HTTP request
// deposits 1/capacity seconds of processing work, the backlog drains in
// real time, and an arrival waits for the backlog it finds. This is the
// queueing extension that relaxes the paper's constant-processing-time
// assumption; it deliberately stays fluid (no per-request event ordering)
// so a simulation run stays O(requests).
type fluidQueue struct {
	perReq  float64 // seconds of work per request; 0 = infinite capacity
	backlog float64 // seconds of work outstanding
	last    float64 // clock of the previous interaction
}

// newFluidQueue builds a queue for a server of the given capacity in
// requests/second. Non-positive or infinite capacity disables queueing.
func newFluidQueue(capacity float64) *fluidQueue {
	q := &fluidQueue{}
	if capacity > 0 && !math.IsInf(capacity, 1) {
		q.perReq = 1 / capacity
	}
	return q
}

// delay advances the queue to time now, records nreqs arriving requests,
// and returns the waiting time those requests experience. now must not
// decrease between calls.
func (q *fluidQueue) delay(now, nreqs float64) float64 {
	if q.perReq == 0 {
		return 0
	}
	elapsed := now - q.last
	if elapsed > 0 {
		q.backlog -= elapsed
		if q.backlog < 0 {
			q.backlog = 0
		}
		q.last = now
	}
	d := q.backlog
	q.backlog += nreqs * q.perReq
	return d
}
