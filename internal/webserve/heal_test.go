package webserve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/htmlrefs"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestBreakerTripsAndRecovers walks the circuit state machine against a
// controllable server: closed → open at the threshold (fast fails, no
// network contact) → half-open probe after the cooldown → closed on probe
// success, and straight back to open on a failed probe.
func TestBreakerTripsAndRecovers(t *testing.T) {
	var fail atomic.Bool
	var calls atomic.Int64
	fail.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		calls.Add(1)
		if fail.Load() {
			http.Error(rw, "boom", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(rw, "ok")
	}))
	defer srv.Close()

	opts := quickOpts()
	opts.Retries = -1 // one attempt per call: calls == getRetry invocations
	opts.BreakerThreshold = 2
	c := NewClientOptions(tinyWorkload(t), opts)

	for i := 0; i < 2; i++ {
		if _, _, _, _, err := c.getRetry(context.Background(), srv.URL+"/doc", keepDoc, nil); err == nil {
			t.Fatal("failing server returned no error")
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("threshold phase made %d calls, want 2", calls.Load())
	}
	// Tripped: the next call must fail fast without touching the network.
	_, _, _, _, err := c.getRetry(context.Background(), srv.URL+"/doc", keepDoc, nil)
	if _, ok := err.(*breakerOpenError); !ok {
		t.Fatalf("open circuit returned %v, want breakerOpenError", err)
	}
	if !retryable(err) {
		t.Fatal("breakerOpenError must be retryable so the fallback route takes it")
	}
	if calls.Load() != 2 {
		t.Fatalf("open circuit still contacted the server (%d calls)", calls.Load())
	}

	// After the cooldown the half-open probe goes through and closes the
	// circuit. Cooldown is jittered in [d, 3d/2); wait past the ceiling.
	fail.Store(false)
	time.Sleep(breakerCooldown*3/2 + 10*time.Millisecond)
	if _, _, _, _, err := c.getRetry(context.Background(), srv.URL+"/doc", keepDoc, nil); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if _, _, _, _, err := c.getRetry(context.Background(), srv.URL+"/doc", keepDoc, nil); err != nil {
		t.Fatalf("closed circuit rejected a request: %v", err)
	}
	if calls.Load() != 4 {
		t.Fatalf("recovery made %d calls, want 4", calls.Load())
	}

	// A failed half-open probe re-opens immediately (no threshold count).
	fail.Store(true)
	for i := 0; i < 2; i++ {
		c.getRetry(context.Background(), srv.URL+"/doc", keepDoc, nil)
	}
	time.Sleep(breakerCooldown*3/2 + 10*time.Millisecond)
	before := calls.Load()
	c.getRetry(context.Background(), srv.URL+"/doc", keepDoc, nil) // probe, fails
	if calls.Load() != before+1 {
		t.Fatalf("probe made %d calls, want 1", calls.Load()-before)
	}
	if _, _, _, _, err := c.getRetry(context.Background(), srv.URL+"/doc", keepDoc, nil); err == nil {
		t.Fatal("circuit closed after a failed probe")
	} else if _, ok := err.(*breakerOpenError); !ok {
		t.Fatalf("failed probe left circuit answering %v, want breakerOpenError", err)
	}
	if calls.Load() != before+1 {
		t.Fatal("re-opened circuit contacted the server")
	}
}

// TestBreaker404DoesNotTrip pins the classification rule: a 404 is an
// authoritative answer from a live server and must never open the circuit.
func TestBreaker404DoesNotTrip(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		calls.Add(1)
		http.NotFound(rw, req)
	}))
	defer srv.Close()

	opts := quickOpts()
	opts.BreakerThreshold = 2
	c := NewClientOptions(tinyWorkload(t), opts)
	for i := 0; i < 5; i++ {
		if _, _, _, _, err := c.getRetry(context.Background(), srv.URL+"/mo/0", keepDoc, nil); err == nil {
			t.Fatal("404 did not error")
		}
	}
	if calls.Load() != 5 {
		t.Fatalf("404s opened the circuit after %d calls", calls.Load())
	}
}

// TestBreakerFastFailStillFallsBack is the breaker's contract with the
// resilient client: a tripped circuit on a dead site converts retry storms
// into immediate repository fallback — every fetch still completes.
func TestBreakerFastFailStillFallsBack(t *testing.T) {
	w := tinyWorkload(t)
	cluster, err := StartClusterOptions(w, model.AllLocal(w), ClusterOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	opts := quickOpts()
	opts.BreakerThreshold = 1
	client := cluster.Client(opts)
	client.Verify = true

	if err := cluster.KillSite(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pid := w.Sites[0].Pages[i]
		res, err := client.FetchPage(cluster.PageURL(pid), pid)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !res.DegradedHTML {
			t.Fatalf("fetch %d from killed site not degraded", i)
		}
	}
	if got := cluster.Metrics.Counter("client.breaker_trips").Value(); got == 0 {
		t.Fatal("dead site never tripped the breaker")
	}
	if got := cluster.Metrics.Counter("client.breaker_fastfails").Value(); got == 0 {
		t.Fatal("open circuit never fast-failed a request")
	}
}

// TestClientJitterIsolatedFromFaultPlans is the rng-isolation satellite:
// the client's backoff and breaker jitter run on Split-derived streams, so
// (a) a fault plan generated with the same seed is identical whether
// or not a client consumed jitter draws, and (b) the client's draws are
// decorrelated from the root stream a fault plan with the same seed uses.
func TestClientJitterIsolatedFromFaultPlans(t *testing.T) {
	const seed = 11
	plan1, err := faults.Generate(1, 3, seed)
	if err != nil {
		t.Fatal(err)
	}

	opts := quickOpts()
	opts.JitterSeed = seed
	c := NewClientOptions(tinyWorkload(t), opts)
	for i := 1; i <= 16; i++ {
		c.backoff(i)
		c.breakerCooldown()
	}

	plan2, err := faults.Generate(1, 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan1, plan2) {
		t.Fatal("client jitter consumption shifted an identically-seeded fault plan")
	}

	// Decorrelation: the client must not draw from the root stream itself.
	// Under the old implementation (jitter = rng.New(seed)) the first
	// backoff equals this root-stream prediction; Split-derived streams
	// diverge immediately.
	root := rng.New(seed)
	const d = backoffBase
	oldStyle := d/2 + time.Duration(root.Uniform(0, float64(d/2)))
	fresh := NewClientOptions(tinyWorkload(t), opts)
	if got := fresh.backoff(1); got == oldStyle {
		t.Fatalf("first backoff %v equals the root-stream draw — client is consuming the shared root", got)
	}
	// And the two client streams are themselves independent.
	a := rng.New(seed).Split(clientBackoffStream).Uniform(0, 1)
	b := rng.New(seed).Split(clientBreakerStream).Uniform(0, 1)
	if a == b {
		t.Fatal("backoff and breaker streams are correlated")
	}
}

// TestKillSiteRacesInFlightRequests is the lifecycle-race satellite: kill a
// site while large transfers are mid-body (run under -race in CI). The cut
// connections must surface as server-side write-error counters and client
// errors — never a silent truncation — and the site's /healthz must flip
// from answering to connection-refused within a probe window, then back
// after RestartSite.
func TestKillSiteRacesInFlightRequests(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Sites = 2
	cfg.PagesPerSiteMin, cfg.PagesPerSiteMax = 6, 10
	cfg.GlobalObjects, cfg.ObjectsPerSite, cfg.ObjectsPerMax = 120, 40, 60
	// Objects must dwarf the kernel's auto-tuned loopback socket buffers
	// (several MB each side): with the client paused mid-body, the handler's
	// io.Copy has to still be blocked in Write when the kill lands, or the
	// whole body drains into TCP buffers and the server never sees an error.
	cfg.MOClasses = []workload.SizeClass{{Frac: 1, Lo: 48 * units.MB, Hi: 64 * units.MB}}
	w := workload.MustGenerate(cfg, 66)
	cluster, err := StartClusterOptions(w, model.AllLocal(w), ClusterOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if resp, err := http.Get(cluster.SiteBases[0] + "/healthz"); err != nil {
		t.Fatalf("healthz before kill: %v", err)
	} else {
		resp.Body.Close()
	}

	const clients = 4
	inFlight := make(chan struct{}, clients)
	var truncated atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := w.Sites[0].Objects[g%len(w.Sites[0].Objects)]
			resp, err := http.Get(cluster.SiteBases[0] + htmlrefs.MOPath(k))
			if err != nil {
				inFlight <- struct{}{}
				truncated.Add(1)
				return
			}
			defer resp.Body.Close()
			head := make([]byte, 64*1024)
			if _, err := io.ReadFull(resp.Body, head); err != nil {
				inFlight <- struct{}{}
				truncated.Add(1)
				return
			}
			inFlight <- struct{}{} // mid-body: the kill races the rest
			rest, err := io.ReadAll(resp.Body)
			if err != nil || int64(len(head)+len(rest)) != int64(w.ObjectSize(k)) {
				truncated.Add(1)
			}
		}(g)
	}
	for g := 0; g < clients; g++ {
		<-inFlight
	}
	if err := cluster.KillSite(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if truncated.Load() == 0 {
		t.Fatal("kill mid-transfer cut no client — transfers completed before the kill")
	}
	// The handler goroutines observe the cut and bump a counter after the
	// clients do — poll rather than read once. The kill cancels in-flight
	// request contexts, so the ctx-aware body copy books the cut as an
	// aborted write; a raw socket error still lands in write_errors.
	errDeadline := time.Now().Add(2 * time.Second)
	for cluster.Metrics.Counter("site.0.write_errors").Value()+
		cluster.Metrics.Counter("server.aborted_writes").Value() == 0 {
		if time.Now().After(errDeadline) {
			t.Fatal("cut transfers incremented neither site.0.write_errors nor server.aborted_writes")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The site's health endpoint must flip within a probe window.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(cluster.SiteBases[0] + "/healthz")
		if err != nil {
			break // flipped: connection refused
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("killed site still answered /healthz after the probe window")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := cluster.RestartSite(0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(cluster.SiteBases[0] + "/healthz")
	if err != nil {
		t.Fatalf("healthz after restart: %v", err)
	}
	resp.Body.Close()
}
