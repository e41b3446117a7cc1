package faults

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// payload is the fixed body served by the test handler.
var payload = bytes1k()

func bytes1k() []byte {
	b := make([]byte, 1024)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

// okHandler serves the payload with a declared Content-Length.
func okHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		rw.Write(payload)
	})
}

// startFaulty serves okHandler behind the spec's middleware.
func startFaulty(t *testing.T, spec Spec, clock func() time.Duration, m Metrics) *httptest.Server {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Middleware(NewInjector(spec, 7), clock, m, okHandler()))
	t.Cleanup(srv.Close)
	return srv
}

func TestMiddlewarePassthrough(t *testing.T) {
	srv := startFaulty(t, Spec{}, nil, Metrics{})
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || len(body) != len(payload) {
		t.Fatalf("clean request: err=%v, %d bytes (want %d)", err, len(body), len(payload))
	}
}

func TestMiddlewareFail(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := MetricsFor(reg, "faults.test.")
	srv := startFaulty(t, Spec{ErrorRate: 1}, nil, m)
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %s, want 503", resp.Status)
	}
	if got := m.Failures.Value(); got != 1 {
		t.Errorf("failure counter = %d, want 1", got)
	}
}

func TestMiddlewareReset(t *testing.T) {
	m := MetricsFor(telemetry.NewRegistry(), "faults.test.")
	srv := startFaulty(t, Spec{ResetRate: 1}, nil, m)
	resp, err := http.Get(srv.URL)
	if err == nil {
		resp.Body.Close()
		t.Fatal("reset-faulted request succeeded")
	}
	if m.Resets.Value() == 0 {
		t.Error("reset not counted")
	}
}

func TestMiddlewareTruncate(t *testing.T) {
	m := MetricsFor(telemetry.NewRegistry(), "faults.test.")
	srv := startFaulty(t, Spec{TruncateRate: 1}, nil, m)
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err) // headers arrive fine; the body is what breaks
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("truncated body read cleanly (%d bytes)", len(body))
	}
	if len(body) >= len(payload) {
		t.Fatalf("truncated response delivered %d bytes, want < %d", len(body), len(payload))
	}
	if m.Truncations.Value() == 0 {
		t.Error("truncation not counted")
	}
}

func TestMiddlewareLatency(t *testing.T) {
	const delay = 30 * time.Millisecond
	srv := startFaulty(t, Spec{Latency: delay}, nil, Metrics{})
	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if took := time.Since(start); took < delay {
		t.Fatalf("request took %v, injected latency is %v", took, delay)
	}
}

// TestMiddlewareLatencyEndsOnCancel pins that injected latency is a wait the
// client can end: a request cancelled mid-delay leaves the handler at once,
// by http.ErrAbortHandler, instead of holding its goroutine — and any
// admission slot around it — for the rest of the delay.
func TestMiddlewareLatencyEndsOnCancel(t *testing.T) {
	h := Middleware(NewInjector(Spec{Latency: 10 * time.Second}, 7), nil, Metrics{}, okHandler())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case r := <-done:
		if r != http.ErrAbortHandler {
			t.Fatalf("handler ended with %v, want a panic(http.ErrAbortHandler)", r)
		}
	case <-time.After(time.Second):
		t.Fatal("handler still waiting out the injected latency 1 s after its request was cancelled")
	}
}

func TestMiddlewareOutageClock(t *testing.T) {
	spec := Spec{Outages: []Window{{Start: 0, End: time.Second}}}
	var mu sync.Mutex
	elapsed := time.Duration(0)
	clock := func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return elapsed
	}
	srv := startFaulty(t, spec, clock, Metrics{})

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("inside window: %s, want 503", resp.Status)
	}

	// Advance past the window: the server heals.
	mu.Lock()
	elapsed = 2 * time.Second
	mu.Unlock()
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after window: %s, want 200", resp.Status)
	}
}

// TestMiddlewareConcurrent hammers a faulty server from many goroutines —
// the injector's stream locking and the counters must be race-clean.
func TestMiddlewareConcurrent(t *testing.T) {
	m := MetricsFor(telemetry.NewRegistry(), "faults.test.")
	srv := startFaulty(t, Spec{ErrorRate: 0.3, ResetRate: 0.2, TruncateRate: 0.2}, nil, m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; i < 20; i++ {
				resp, err := client.Get(srv.URL)
				if err != nil {
					continue // resets are expected
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	total := m.Failures.Value() + m.Resets.Value() + m.Truncations.Value()
	if total == 0 {
		t.Error("no faults injected across 160 requests at ~70% fault rate")
	}
}
