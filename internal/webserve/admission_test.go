package webserve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/model"
)

// admissionCluster starts the tiny cluster with the admission stack armed
// and returns it with metrics on.
func admissionCluster(t *testing.T) *Cluster {
	t.Helper()
	w := tinyWorkload(t)
	cluster, err := StartClusterOptions(w, model.AllLocal(w), ClusterOptions{
		Metrics:   true,
		Admission: &admission.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	return cluster
}

// TestAdmissionShedsWith429AndRetryAfter: a request whose deadline has
// passed is shed at arrival, and every shed is answered 429 with both
// Retry-After forms; a live request is still served.
func TestAdmissionShedsWith429AndRetryAfter(t *testing.T) {
	cluster := admissionCluster(t)
	k := cluster.W.Sites[0].Objects[0]
	url := cluster.SiteBases[0] + "/mo/" + strconv.Itoa(int(k))

	get := func(deadline time.Time) *http.Response {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(admission.DeadlineHeader, admission.FormatDeadline(deadline))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	const doomed = 6
	for i := 0; i < doomed; i++ {
		resp := get(time.Now().Add(-time.Second))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("doomed request status %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Error("429 without Retry-After")
		} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Errorf("Retry-After = %q, want integer seconds >= 1", ra)
		}
		ms := resp.Header.Get(admission.RetryAfterMillisHeader)
		if v, err := strconv.Atoi(ms); err != nil || v < 50 || v >= 75 {
			t.Errorf("%s = %q, want the jittered hint in [50, 75)", admission.RetryAfterMillisHeader, ms)
		}
	}
	if resp := get(time.Now().Add(time.Minute)); resp.StatusCode != http.StatusOK {
		t.Fatalf("live request status %d, want 200", resp.StatusCode)
	}
	if got := cluster.Metrics.Counter("admission.0.shed_by.deadline").Value(); got != doomed {
		t.Errorf("admission.0.shed_by.deadline = %d, want %d", got, doomed)
	}
	if got := cluster.Metrics.Counter("admission.0.admitted").Value(); got != 1 {
		t.Errorf("admission.0.admitted = %d, want 1", got)
	}
}

// TestAdmissionShedsDoomedDeadline pins deadline propagation server-side: a
// request whose X-Repl-Deadline already passed is shed at the door — 429,
// booked under shed_by.deadline, and the object handler is never reached.
func TestAdmissionShedsDoomedDeadline(t *testing.T) {
	cluster := admissionCluster(t)
	k := cluster.W.Sites[0].Objects[0]
	url := cluster.SiteBases[0] + "/mo/" + strconv.Itoa(int(k))

	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(admission.DeadlineHeader, admission.FormatDeadline(time.Now().Add(-time.Second)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expired deadline got %d, want 429 (body %q)", resp.StatusCode, body)
	}
	if got := cluster.Metrics.Counter("admission.0.shed_by.deadline").Value(); got != 1 {
		t.Errorf("shed_by.deadline = %d, want 1", got)
	}
	if got := cluster.Metrics.Counter("site.0.mo_requests").Value(); got != 0 {
		t.Errorf("doomed request reached the object handler (%d serves)", got)
	}
}

// TestBrownoutDegradesPages walks the brownout controller up under a shed
// storm and verifies the degradation is visible end to end: the page is
// served with X-Repl-Brownout and the client surfaces it as
// PageResult.Brownout.
func TestBrownoutDegradesPages(t *testing.T) {
	cluster := admissionCluster(t)
	k := cluster.W.Sites[0].Objects[0]
	moURL := cluster.SiteBases[0] + "/mo/" + strconv.Itoa(int(k))

	// A storm of doomed requests: every one sheds, so each brownout window
	// closes with a 100% shed rate and the tier climbs to MaxTier.
	doomed, err := http.NewRequest(http.MethodGet, moURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(4 * time.Second)
	for cluster.SiteAdms[0].Tier() < admission.MaxTier {
		if time.Now().After(deadline) {
			t.Fatalf("brownout tier stuck at %d", cluster.SiteAdms[0].Tier())
		}
		doomed.Header.Set(admission.DeadlineHeader, admission.FormatDeadline(time.Now().Add(-time.Second)))
		resp, err := http.DefaultClient.Do(doomed)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	client := cluster.Client(quickOpts())
	client.Verify = true
	pid := cluster.W.Sites[0].Pages[0]
	res, err := client.FetchPage(cluster.PageURL(pid), pid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Brownout < 1 {
		t.Fatalf("page served at full fidelity (Brownout = %d) under max brownout pressure", res.Brownout)
	}
	if got := cluster.Metrics.Counter("site.0.brownout_pages").Value(); got == 0 {
		t.Error("site.0.brownout_pages never incremented")
	}
}

// Test429DoesNotTripBreaker pins the classification rule the admission
// stack depends on: a shed is an authoritative answer from a live server
// that is policing its queue. Tripping breakers on 429s would turn a
// transient overload into a self-inflicted outage.
func Test429DoesNotTripBreaker(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		calls.Add(1)
		rw.Header().Set(admission.RetryAfterMillisHeader, "1")
		http.Error(rw, "overloaded", http.StatusTooManyRequests)
	}))
	defer srv.Close()

	opts := quickOpts()
	opts.Retries = -1 // single attempt per call
	opts.BreakerThreshold = 1
	c := NewClientOptions(tinyWorkload(t), opts)

	for i := 0; i < 5; i++ {
		_, _, _, _, err := c.getRetry(context.Background(), srv.URL+"/doc", keepDoc, nil)
		if err == nil {
			t.Fatal("429 did not error")
		}
		if _, ok := err.(*breakerOpenError); ok {
			t.Fatalf("call %d: sheds tripped the breaker", i)
		}
	}
	if got := calls.Load(); got != 5 {
		t.Fatalf("server saw %d calls, want 5 — the circuit must stay closed through sheds", got)
	}
}

// TestBreakerHalfOpenSingleProbe pins the half-open state under
// concurrency: once the cooldown elapses, exactly one request becomes the
// probe; every concurrent loser fails fast without touching the network.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := &hostBreaker{}
	if tripped := b.onFailure(1, time.Now().Add(10*time.Millisecond)); !tripped {
		t.Fatal("threshold-1 failure did not trip")
	}
	if b.allow(time.Now()) {
		t.Fatal("open circuit allowed a request inside the cooldown")
	}
	time.Sleep(20 * time.Millisecond)

	const racers = 32
	var allowed atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if b.allow(time.Now()) {
				allowed.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := allowed.Load(); got != 1 {
		t.Fatalf("half-open circuit let %d probes through, want exactly 1", got)
	}

	// While the probe is in flight, later arrivals still fail fast.
	if b.allow(time.Now()) {
		t.Fatal("second probe admitted while the first is in flight")
	}
}

// TestBreakerHalfOpenProbeOutcomes pins both probe endings: success closes
// the circuit for everyone; failure re-opens it immediately (no threshold
// count) for the full cooldown.
func TestBreakerHalfOpenProbeOutcomes(t *testing.T) {
	// Failure path: the failed probe re-opens regardless of threshold.
	b := &hostBreaker{}
	b.onFailure(1, time.Now().Add(time.Millisecond))
	time.Sleep(5 * time.Millisecond)
	if !b.allow(time.Now()) {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	if tripped := b.onFailure(99, time.Now().Add(time.Hour)); !tripped {
		t.Fatal("failed half-open probe did not re-open the circuit")
	}
	if b.allow(time.Now()) {
		t.Fatal("circuit admitted a request right after a failed probe")
	}

	// Success path: the probe's success resets state completely.
	b2 := &hostBreaker{}
	b2.onFailure(1, time.Now().Add(time.Millisecond))
	time.Sleep(5 * time.Millisecond)
	if !b2.allow(time.Now()) {
		t.Fatal("cooldown elapsed but no probe admitted")
	}
	b2.onSuccess()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !b2.allow(time.Now()) {
				t.Error("closed circuit refused a request")
			}
		}()
	}
	wg.Wait()
}
