package admission

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestCoDelShedsOnStandingQueue pins the control law: sojourn above target
// must persist for a full interval before the first shed, and while it
// does, sheds tighten as interval/√count.
func TestCoDelShedsOnStandingQueue(t *testing.T) {
	c := &codel{}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	// A burst above target inside one interval never sheds.
	if c.onDequeue(ms(10), ms(0)) {
		t.Fatal("first over-target sojourn shed immediately")
	}
	if c.onDequeue(ms(10), ms(50)) {
		t.Fatal("shed before a full interval above target")
	}
	// At one full interval the standing queue is real: shedding starts.
	if !c.onDequeue(ms(10), ms(100)) {
		t.Fatal("no shed after a full interval above target")
	}
	if !c.dropping {
		t.Fatal("law not in dropping state after first shed")
	}
	// Next shed comes interval/√2 ≈ 70.7ms later, not immediately.
	if c.onDequeue(ms(10), ms(120)) {
		t.Fatal("second shed fired before the √-law gap")
	}
	if !c.onDequeue(ms(10), ms(171)) {
		t.Fatal("second shed missing after the √-law gap")
	}
	// A below-target sojourn disarms everything.
	if c.onDequeue(ms(1), ms(180)) {
		t.Fatal("below-target sojourn shed")
	}
	if c.dropping {
		t.Fatal("law still dropping after the queue cleared")
	}
}

// TestEndpointAIMD pins the auto-tuner: sheds halve the limit (at most
// once per interval, floored at minLimit), clean intervals add one back.
func TestEndpointAIMD(t *testing.T) {
	e := NewEndpoint(Config{})
	e.gate.limit = 16
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	e.mu.Lock()
	e.gate.shed(ms(200))
	e.mu.Unlock()
	if got := e.Limit(); got != 8 {
		t.Fatalf("limit after one shed = %d, want 8", got)
	}
	// A second shed inside the same interval must not halve again.
	e.mu.Lock()
	e.gate.shed(ms(250))
	e.mu.Unlock()
	if got := e.Limit(); got != 8 {
		t.Fatalf("limit after back-to-back sheds = %d, want 8 (one decrease per interval)", got)
	}
	e.mu.Lock()
	e.gate.shed(ms(301))
	e.mu.Unlock()
	if got := e.Limit(); got != 4 {
		t.Fatalf("limit after next-interval shed = %d, want 4", got)
	}
	// Floor.
	e.mu.Lock()
	e.gate.shed(ms(402))
	e.mu.Unlock()
	if got := e.Limit(); got != 4 {
		t.Fatalf("limit fell below minLimit: %d", got)
	}
	// Clean intervals grow additively.
	e.mu.Lock()
	e.gate.grow(ms(503))
	e.mu.Unlock()
	if got := e.Limit(); got != 5 {
		t.Fatalf("limit after one clean interval = %d, want 5", got)
	}
	e.mu.Lock()
	e.gate.grow(ms(520)) // same interval: no growth
	e.mu.Unlock()
	if got := e.Limit(); got != 5 {
		t.Fatalf("limit grew twice in one interval: %d", got)
	}
}

// frozen is a clock that never advances: sojourns are zero, so CoDel never
// sheds, and no interval passes, so AIMD never moves the limit.
func frozen() time.Duration { return 0 }

// TestEndpointQueueBound pins the backstop: with the concurrency limit and
// the queue both full, further arrivals shed instantly as queue_full.
func TestEndpointQueueBound(t *testing.T) {
	e := NewEndpoint(Config{})
	e.gate.limit = 1
	clock := frozen

	v, rel := e.Admit(context.Background(), clock, time.Time{})
	if v != Admitted {
		t.Fatalf("first request not admitted: %v", v)
	}
	// Fill the queue.
	done := make(chan Verdict, maxQueue)
	for i := 0; i < maxQueue; i++ {
		go func() {
			v, r := e.Admit(context.Background(), clock, time.Time{})
			if r != nil {
				defer r()
			}
			done <- v
		}()
	}
	waitFor(t, func() bool { return e.QueueLen() == maxQueue })
	v2, _ := e.Admit(context.Background(), clock, time.Time{})
	if v2 != ShedQueue {
		t.Fatalf("over-bound arrival verdict = %v, want ShedQueue", v2)
	}
	rel()
	for i := 0; i < maxQueue; i++ {
		if got := <-done; got != Admitted {
			t.Fatalf("queued request verdict = %v, want Admitted", got)
		}
	}
}

// TestEndpointDeadlineShed pins deadline awareness end to end: expired-on-
// arrival work sheds without queueing, and a queued request whose deadline
// lapses is shed instead of served.
func TestEndpointDeadlineShed(t *testing.T) {
	e := NewEndpoint(Config{})
	e.gate.limit = 1
	clock := frozen

	if v, _ := e.Admit(context.Background(), clock, time.Now().Add(-time.Second)); v != ShedDeadline {
		t.Fatalf("expired-on-arrival verdict = %v, want ShedDeadline", v)
	}

	v, rel := e.Admit(context.Background(), clock, time.Time{})
	if v != Admitted {
		t.Fatalf("setup admit failed: %v", v)
	}
	got := make(chan Verdict, 1)
	go func() {
		v, r := e.Admit(context.Background(), clock, time.Now().Add(30*time.Millisecond))
		if r != nil {
			r()
		}
		got <- v
	}()
	// Hold the slot past the waiter's deadline.
	time.Sleep(60 * time.Millisecond)
	if v := <-got; v != ShedDeadline {
		t.Fatalf("lapsed-in-queue verdict = %v, want ShedDeadline", v)
	}
	rel()
	if e.QueueLen() != 0 {
		t.Fatalf("abandoned waiter still queued: %d", e.QueueLen())
	}
}

// TestEndpointAbortedClient pins the disconnect path: a canceled context
// abandons the queued waiter and the slot cascade skips it.
func TestEndpointAbortedClient(t *testing.T) {
	e := NewEndpoint(Config{})
	e.gate.limit = 1
	clock := frozen

	_, rel := e.Admit(context.Background(), clock, time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan Verdict, 1)
	go func() {
		v, r := e.Admit(ctx, clock, time.Time{})
		if r != nil {
			r()
		}
		got <- v
	}()
	waitFor(t, func() bool { return e.QueueLen() == 1 })
	cancel()
	if v := <-got; v != Aborted {
		t.Fatalf("canceled waiter verdict = %v, want Aborted", v)
	}
	rel()
	if e.Active() != 0 {
		t.Fatalf("slot leaked to an aborted waiter: active=%d", e.Active())
	}
}

// TestBrownoutWalksTiersWithHysteresis pins the degradation controller:
// sustained shed pressure raises the tier one window at a time up to
// MaxTier; pressure below the down-threshold walks it back. Times are in
// tenths of a brownout window.
func TestBrownoutWalksTiersWithHysteresis(t *testing.T) {
	b := &Brownout{}
	ms := func(n int) time.Duration { return time.Duration(n) * brownoutWindow / 10 }

	// Window 1: 50% sheds → tier 1.
	b.Observe(true, ms(1))
	b.Observe(false, ms(2))
	tier, changed := b.Observe(true, ms(11))
	if tier != 1 || !changed {
		t.Fatalf("after shed-heavy window: tier=%d changed=%v, want 1 true", tier, changed)
	}
	// Window 2: still shedding → tier 2 and pinned at MaxTier after.
	b.Observe(true, ms(12))
	tier, _ = b.Observe(true, ms(22))
	if tier != MaxTier {
		t.Fatalf("after second shed window: tier=%d, want %d", tier, MaxTier)
	}
	b.Observe(true, ms(23))
	tier, changed = b.Observe(true, ms(33))
	if tier != MaxTier || changed {
		t.Fatalf("tier left [0, MaxTier]: tier=%d changed=%v", tier, changed)
	}
	// Intermediate shed rate (between thresholds): hold.
	b.Observe(true, ms(34))
	for i := 0; i < 20; i++ {
		b.Observe(false, ms(35))
	}
	tier, changed = b.Observe(false, ms(44))
	if tier != MaxTier || changed {
		t.Fatalf("hysteresis band moved the tier: tier=%d changed=%v", tier, changed)
	}
	// Clean windows walk back down.
	for w := 0; w < 2; w++ {
		base := 45 + w*11
		for i := 0; i < 5; i++ {
			b.Observe(false, ms(base+i))
		}
		b.Observe(false, ms(base+10))
	}
	if got := b.Tier(); got != 0 {
		t.Fatalf("tier after clean windows = %d, want 0", got)
	}
}

// TestMiddlewareShedsWith429AndRetryAfter pins the HTTP surface: a full
// queue answers 429 with both Retry-After headers, counts the shed, and
// admitted requests reach the handler with the slot released after.
func TestMiddlewareShedsWith429AndRetryAfter(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(Config{Seed: 7}, frozen, MetricsFor(reg, "admission.test."))
	s.mo.gate.limit = 1

	release := make(chan struct{})
	started := make(chan struct{}, 8)
	h := s.Middleware(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		started <- struct{}{}
		<-release
		rw.WriteHeader(http.StatusOK)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	defer close(release)

	// Occupy the slot, fill the queue but for one seat with waiters whose
	// deadline has passed (the next grant sheds them), and take that seat.
	var wg sync.WaitGroup
	var okCount atomic.Int64
	get := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/mo/0")
			if err == nil {
				if resp.StatusCode == http.StatusOK {
					okCount.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	get()
	<-started // the first is in the handler
	s.mo.mu.Lock()
	for i := 0; i < maxQueue-1; i++ {
		s.mo.gate.queue = append(s.mo.gate.queue, entry[*waiter]{id: &waiter{verdict: make(chan Verdict, 1)}, deadline: -1})
	}
	s.mo.mu.Unlock()
	get()
	waitFor(t, func() bool { return s.Endpoint("mo").QueueLen() == maxQueue })

	resp, err := http.Get(srv.URL + "/mo/0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	raMs := resp.Header.Get(RetryAfterMillisHeader)
	if raMs == "" {
		t.Errorf("429 missing %s", RetryAfterMillisHeader)
	}
	if got := reg.Counter("admission.test.shed_by.queue").Value(); got != 1 {
		t.Errorf("shed_by.queue = %d, want 1", got)
	}
	release <- struct{}{} // finish the in-handler request
	<-started             // the queued request reaches the handler
	release <- struct{}{} // finish it too
	wg.Wait()
	if okCount.Load() != 2 {
		t.Errorf("held requests completed = %d, want 2", okCount.Load())
	}
	if got := reg.Counter("admission.test.admitted").Value(); got != 2 {
		t.Errorf("admitted = %d, want 2", got)
	}
}

// TestMiddlewareShedsDoomedDeadline pins deadline propagation on the HTTP
// surface: a request whose X-Repl-Deadline already passed is shed without
// reaching the handler.
func TestMiddlewareShedsDoomedDeadline(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(Config{}, nil, MetricsFor(reg, "admission.test."))
	var reached atomic.Int64
	h := s.Middleware(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		reached.Add(1)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/page/0", nil)
	req.Header.Set(DeadlineHeader, FormatDeadline(time.Now().Add(-time.Second)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed request status = %d, want 429", resp.StatusCode)
	}
	if reached.Load() != 0 {
		t.Fatal("doomed request reached the handler")
	}
	if got := reg.Counter("admission.test.shed_by.deadline").Value(); got != 1 {
		t.Errorf("shed_by.deadline = %d, want 1", got)
	}

	// A healthy deadline passes through.
	req2, _ := http.NewRequest(http.MethodGet, srv.URL+"/page/0", nil)
	req2.Header.Set(DeadlineHeader, FormatDeadline(time.Now().Add(time.Minute)))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || reached.Load() != 1 {
		t.Fatalf("live-deadline request: status=%d reached=%d, want 200/1", resp2.StatusCode, reached.Load())
	}
}

// TestRetryAfterJitterSeeded pins reproducibility: same seed, same jitter
// sequence; the hint stays in [d, 3d/2).
func TestRetryAfterJitterSeeded(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		s := NewServer(Config{Seed: seed}, nil, Metrics{})
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = s.retryAfter()
		}
		return out
	}
	a, b := mk(42), mk(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed jitter diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < retryAfter || a[i] >= retryAfter*3/2 {
			t.Fatalf("jitter %v outside [%v, %v)", a[i], retryAfter, retryAfter*3/2)
		}
	}
	c := mk(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

// waitFor polls cond up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
