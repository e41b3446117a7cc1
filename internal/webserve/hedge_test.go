package webserve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// hedgePair starts a primary and a fallback server with controllable
// behaviour and returns a metered client armed for hedging.
func hedgePair(t *testing.T, primary, fallback http.Handler, hedge time.Duration) (*Client, *httptest.Server, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	prim := httptest.NewServer(primary)
	t.Cleanup(prim.Close)
	fb := httptest.NewServer(fallback)
	t.Cleanup(fb.Close)
	reg := telemetry.NewRegistry()
	c := NewClientOptions(tinyWorkload(t), ClientOptions{
		Retries:          -1,
		BreakerThreshold: -1,
		FallbackBase:     fb.URL,
		HedgeDelay:       hedge,
		Metrics:          reg,
	})
	return c, prim, fb, reg
}

// TestHedgeOvertakesLimpingPrimary pins the tentpole behaviour: a primary
// that answers — eventually — is overtaken by the late-started repository
// leg, so the chain proceeds at repository latency instead of waiting out
// the limp. The loser is canceled, and the win is booked to the fallback.
func TestHedgeOvertakesLimpingPrimary(t *testing.T) {
	release := make(chan struct{})
	primary := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		<-release // limping: stalls until the test lets go
		rw.Write([]byte("primary"))
	})
	fallback := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.Write([]byte("fallback"))
	})
	c, prim, _, reg := hedgePair(t, primary, fallback, 5*time.Millisecond)
	defer close(release)

	data, _, _, fellBack, err := c.fetchMO(context.Background(), prim.URL+"/mo/0", 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fellBack || string(data) != "fallback" {
		t.Fatalf("hedge did not win: fellBack=%v data=%q", fellBack, data)
	}
	if got := reg.Counter("client.hedge.launched").Value(); got != 1 {
		t.Errorf("hedge.launched = %d, want 1", got)
	}
	if got := reg.Counter("client.hedge.wins_by.fallback").Value(); got != 1 {
		t.Errorf("hedge.wins_by.fallback = %d, want 1", got)
	}
	if got := reg.Counter("client.hedge.wins_by.primary").Value(); got != 0 {
		t.Errorf("hedge.wins_by.primary = %d, want 0", got)
	}
}

// TestHedgeNotLaunchedForHealthyPrimary pins the cost model: a primary that
// answers inside the hedge delay never triggers the second request.
func TestHedgeNotLaunchedForHealthyPrimary(t *testing.T) {
	var fbHits atomic.Int64
	primary := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.Write([]byte("primary"))
	})
	fallback := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		fbHits.Add(1)
		rw.Write([]byte("fallback"))
	})
	c, prim, _, reg := hedgePair(t, primary, fallback, 250*time.Millisecond)

	data, _, _, fellBack, err := c.fetchMO(context.Background(), prim.URL+"/mo/0", 0, true, nil)
	if err != nil || fellBack || string(data) != "primary" {
		t.Fatalf("healthy primary lost: err=%v fellBack=%v data=%q", err, fellBack, data)
	}
	if got := reg.Counter("client.hedge.launched").Value(); got != 0 {
		t.Errorf("hedge.launched = %d, want 0", got)
	}
	if fbHits.Load() != 0 {
		t.Errorf("fallback server saw %d requests, want 0", fbHits.Load())
	}
}

// TestHedgePrimaryWinStillCounts pins the race accounting the other way: if
// the hedge launches but the primary answers first anyway, the win is booked
// to the primary and the data is the primary's.
func TestHedgePrimaryWinStillCounts(t *testing.T) {
	release := make(chan struct{})
	primary := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		time.Sleep(20 * time.Millisecond) // past the hedge trigger, before the fallback
		rw.Write([]byte("primary"))
	})
	fallback := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		<-release // the hedge leg stalls; the primary must win
		rw.Write([]byte("fallback"))
	})
	c, prim, _, reg := hedgePair(t, primary, fallback, 2*time.Millisecond)
	defer close(release)

	data, _, _, fellBack, err := c.fetchMO(context.Background(), prim.URL+"/mo/0", 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fellBack || string(data) != "primary" {
		t.Fatalf("primary's win misbooked: fellBack=%v data=%q", fellBack, data)
	}
	if got := reg.Counter("client.hedge.launched").Value(); got != 1 {
		t.Errorf("hedge.launched = %d, want 1", got)
	}
	if got := reg.Counter("client.hedge.wins_by.primary").Value(); got != 1 {
		t.Errorf("hedge.wins_by.primary = %d, want 1", got)
	}
}

// TestHedgeFailedPrimaryIsClassicFallback pins the hedged path's failure
// semantics: a primary that fails outright before the hedge timer fires
// takes the ordinary failure-triggered fallback — counted under
// client.fallbacks_by.*, not as a hedge launch or win.
func TestHedgeFailedPrimaryIsClassicFallback(t *testing.T) {
	primary := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		http.Error(rw, "boom", http.StatusServiceUnavailable)
	})
	fallback := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.Write([]byte("fallback"))
	})
	c, prim, _, reg := hedgePair(t, primary, fallback, time.Minute)

	data, _, _, fellBack, err := c.fetchMO(context.Background(), prim.URL+"/mo/0", 0, true, nil)
	if err != nil || !fellBack || string(data) != "fallback" {
		t.Fatalf("failure fallback broken: err=%v fellBack=%v data=%q", err, fellBack, data)
	}
	if got := reg.Counter("client.hedge.launched").Value(); got != 0 {
		t.Errorf("hedge.launched = %d, want 0 (this was a failure, not a hedge)", got)
	}
	if got := reg.Counter("client.fallbacks_by.5xx").Value(); got != 1 {
		t.Errorf("fallbacks_by.5xx = %d, want 1", got)
	}
	if got := reg.Counter("client.hedge.wins_by.fallback").Value(); got != 0 {
		t.Errorf("hedge.wins_by.fallback = %d, want 0", got)
	}
}

// TestCorruptBodyIsRetriedThenFallsBack pins the satellite contract: a
// checksum mismatch is a retryable failure with reason "corrupt" — never a
// success — and degrades to the repository like any transient fault.
func TestCorruptBodyIsRetriedThenFallsBack(t *testing.T) {
	w := tinyWorkload(t)
	const k = 0
	good, err := io.ReadAll(ObjectReader(w, RepoSource, k))
	if err != nil {
		t.Fatal(err)
	}
	var primHits atomic.Int64
	primary := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		primHits.Add(1)
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0xFF // persistent corruption: every read is bad
		rw.Write(bad)
	}))
	defer primary.Close()
	fallback := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.Write(good)
	}))
	defer fallback.Close()

	reg := telemetry.NewRegistry()
	c := NewClientOptions(w, ClientOptions{
		Retries:          1,
		BackoffBase:      time.Millisecond,
		BreakerThreshold: -1,
		FallbackBase:     fallback.URL,
		Metrics:          reg,
	})
	c.Verify = true

	data, _, _, fellBack, err := c.fetchMO(context.Background(), primary.URL+"/mo/0", k, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !fellBack || string(data) != string(good) {
		t.Fatalf("corrupt fetch did not degrade cleanly: fellBack=%v", fellBack)
	}
	if got := primHits.Load(); got != 2 {
		t.Errorf("primary hit %d times, want 2 (first try + one retry)", got)
	}
	if got := reg.Counter("client.retries_by.corrupt").Value(); got != 1 {
		t.Errorf("retries_by.corrupt = %d, want 1", got)
	}
	if got := reg.Counter("client.fallbacks_by.corrupt").Value(); got != 1 {
		t.Errorf("fallbacks_by.corrupt = %d, want 1", got)
	}
}
