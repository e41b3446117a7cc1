package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers one registry from many goroutines — the
// race detector (ci.sh runs this package under -race) is the real assertion;
// the totals check catches lost updates.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const workers = 16
	const perWorker = 1000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("test.shared")
			g := reg.Gauge("test.level")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(w))
				// Interleave registration with updates.
				reg.Counter("test.shared").Add(0)
			}
		}(w)
	}
	wg.Wait()

	if got := reg.Counter("test.shared").Value(); got != workers*perWorker {
		t.Errorf("counter lost updates: got %d want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("test.level").Value(); got < 0 || got >= workers || got != float64(int(got)) {
		t.Errorf("gauge holds %g, which no worker wrote", got)
	}
}

// TestNilRegistryIsNoOp verifies the disabled fast path: a nil registry
// hands out nil instruments whose methods are alloc-free no-ops.
func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *Registry
	c := reg.Counter("test.x")
	g := reg.Gauge("test.x")
	if c != nil || g != nil {
		t.Fatal("nil registry handed out non-nil instruments")
	}

	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
	})
	if allocs != 0 {
		t.Errorf("disabled instruments allocate: %v allocs/op", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments returned non-zero values")
	}
	snap := reg.Snapshot()
	if snap == nil || len(snap.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestSnapshotEncodings(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.requests").Add(7)
	reg.Counter("a.requests").Add(3)
	reg.Gauge("test.load").Set(0.5)

	snap := reg.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a.requests" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	if got := snap.CounterValue("b.requests"); got != 7 {
		t.Errorf("CounterValue = %d, want 7", got)
	}

	var jsonBuf bytes.Buffer
	if err := snap.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if decoded.CounterValue("a.requests") != 3 {
		t.Error("JSON round-trip lost counter value")
	}

	var textBuf bytes.Buffer
	if err := snap.WriteText(&textBuf); err != nil {
		t.Fatal(err)
	}
	text := textBuf.String()
	for _, want := range []string{"a.requests", "b.requests", "test.load"} {
		if !strings.Contains(text, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, text)
		}
	}
}

// TestMetricNameShape pins the name check at creation: a dotted lower-case
// name registers as a counter and as a gauge, any other name panics, so a
// test that reaches a malformed registration fails.
func TestMetricNameShape(t *testing.T) {
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"client.retries", true},
		{"admission.site.0.shed_by.queue", true},
		{"client.retries_by.5xx", true},
		{"BadName", false},
		{"plain", false}, // a single segment
		{"site.", false},
		{"trailing.", false},
		{"faults.site.0.Bad", false},
		{"faults.site.0.injected delays", false},
	} {
		for kind, register := range map[string]func(*Registry){
			"counter": func(r *Registry) { r.Counter(c.name) },
			"gauge":   func(r *Registry) { r.Gauge(c.name) },
		} {
			if got := !panics(func() { register(NewRegistry()) }); got != c.ok {
				t.Errorf("%s %q: registered = %v, want %v", kind, c.name, got, c.ok)
			}
		}
	}
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
