package faults

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestGrayWindowsConsumeNoRandomness extends the outage-window guarantee to
// every gray mode: limp, partition and rot decisions never shift the
// rate-driven decision stream, so arming chaos windows cannot change which
// request draws which fault.
func TestGrayWindowsConsumeNoRandomness(t *testing.T) {
	spec := Spec{ErrorRate: 0.5}
	gray := spec
	gray.Rot = []int{1, 2, 3}
	gray.LimpLatency = 5 * time.Millisecond
	gray.Limps = []Window{{Start: time.Second, End: 2 * time.Second}}
	gray.PartitionControl = []Window{{Start: 3 * time.Second, End: 4 * time.Second}}
	gray.PartitionData = []Window{{Start: 5 * time.Second, End: 6 * time.Second}}
	if err := gray.Validate(); err != nil {
		t.Fatal(err)
	}

	plain := NewInjector(spec, 5)
	grayed := NewInjector(gray, 5)

	for i := 0; i < 100; i++ {
		// Window-driven decisions, none of which may touch the stream.
		if d := grayed.DecideRequest(3500*time.Millisecond, HealthzPath); d.Action != Fail {
			t.Fatalf("control partition served healthz: %v", d.Action)
		}
		if d := grayed.DecideRequest(5500*time.Millisecond, "/mo/9"); d.Action != Reset {
			t.Fatalf("data partition served data path: %v", d.Action)
		}
		got := grayed.DecideRequest(0, "")
		want := plain.DecideRequest(0, "")
		// The limp windows are closed at elapsed 0 and rot never touches
		// Decide, so the rate stream must stay aligned with the plain one.
		if got != want {
			t.Fatalf("decision %d shifted after gray-window draws: %+v vs %+v", i, got, want)
		}
	}
}

// TestLimpWindowsAreExactAndRandomless pins the slow-node mode: inside a
// limp window every decision carries exactly LimpLatency extra delay with no
// jitter, outside it nothing, and a rate-free spec never consumes a draw.
func TestLimpWindowsAreExactAndRandomless(t *testing.T) {
	spec := Spec{
		LimpLatency: 7 * time.Millisecond,
		Limps:       []Window{{Start: time.Second, End: 2 * time.Second}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(spec, 11)
	for i := 0; i < 50; i++ {
		in := inj.DecideRequest(1500*time.Millisecond, "/mo/1")
		if in.Action != None || in.Delay != 7*time.Millisecond {
			t.Fatalf("inside limp window: %+v, want none/7ms", in)
		}
		out := inj.DecideRequest(2500*time.Millisecond, "/mo/1")
		if out.Action != None || out.Delay != 0 {
			t.Fatalf("outside limp window: %+v, want none/0", out)
		}
	}
}

// TestPartialPartitionsKeyOnPath pins the two asymmetric partition modes:
// a control partition fails only the health endpoint while data flows, a
// data partition resets data paths while the health endpoint stays green —
// the supervisor and the clients see opposite worlds.
func TestPartialPartitionsKeyOnPath(t *testing.T) {
	forever := []Window{{Start: 0, End: time.Hour}}

	control := NewInjector(Spec{PartitionControl: forever}, 1)
	if d := control.DecideRequest(time.Minute, HealthzPath); d.Action != Fail {
		t.Errorf("control partition: healthz decided %v, want fail", d.Action)
	}
	if d := control.DecideRequest(time.Minute, "/mo/3"); d.Action != None {
		t.Errorf("control partition: data path decided %v, want none", d.Action)
	}

	data := NewInjector(Spec{PartitionData: forever}, 1)
	if d := data.DecideRequest(time.Minute, HealthzPath); d.Action != None {
		t.Errorf("data partition: healthz decided %v, want none", d.Action)
	}
	if d := data.DecideRequest(time.Minute, "/page/0"); d.Action != Reset {
		t.Errorf("data partition: data path decided %v, want reset", d.Action)
	}
}

// TestRotFlipIsPureAndClearable pins replica rot's contract: the flip
// parameters are a pure function of (seed, object) — the same wrong bytes on
// every read, like on-disk bit-rot — the mask never leaves a byte unchanged,
// and ClearRot models the anti-entropy re-write.
func TestRotFlipIsPureAndClearable(t *testing.T) {
	spec := Spec{Rot: []int{3, 7}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	a, b := NewInjector(spec, 42), NewInjector(spec, 42)
	for _, k := range []int{3, 7} {
		if !a.Rotted(k) {
			t.Fatalf("object %d not rotted", k)
		}
		f1, m1 := a.RotFlip(k)
		f2, m2 := a.RotFlip(k)
		f3, m3 := b.RotFlip(k)
		if f1 != f2 || m1 != m2 || f1 != f3 || m1 != m3 {
			t.Fatalf("object %d flip not pure: (%v,%v) (%v,%v) (%v,%v)", k, f1, m1, f2, m2, f3, m3)
		}
		if m1 == 0 {
			t.Fatalf("object %d mask is zero — the flip would be a no-op", k)
		}
	}
	if a.Rotted(5) {
		t.Fatal("unlisted object reported rotted")
	}
	if got := a.RotCount(); got != 2 {
		t.Fatalf("RotCount = %d, want 2", got)
	}
	a.ClearRot(3)
	if a.Rotted(3) || a.RotCount() != 1 {
		t.Fatal("ClearRot did not repair the replica")
	}
	// The other injector is untouched: rot state is per-injector.
	if !b.Rotted(3) {
		t.Fatal("ClearRot leaked across injectors")
	}
}

// TestMiddlewareCorrupt pins the wire-corruption mode: the response
// completes with the right status and length but exactly one byte differs —
// invisible to the transport, visible only end to end.
func TestMiddlewareCorrupt(t *testing.T) {
	m := MetricsFor(telemetry.NewRegistry(), "faults.test.")
	srv := startFaulty(t, Spec{CorruptRate: 1}, nil, m)
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) != len(payload) {
		t.Fatalf("corrupt response not gray: %s, %d bytes (want 200, %d)", resp.Status, len(body), len(payload))
	}
	diff := 0
	for i := range body {
		if body[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	if m.Corruptions.Value() == 0 {
		t.Error("corruption not counted")
	}
}

// TestMiddlewareRotPersistsUntilCleared serves a rotted /mo/ replica and
// checks the defining properties: the same corrupted bytes on every read,
// other objects untouched, and clean service after ClearRot.
func TestMiddlewareRotPersistsUntilCleared(t *testing.T) {
	spec := Spec{Rot: []int{3}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(spec, 9)
	m := MetricsFor(telemetry.NewRegistry(), "faults.test.")
	srv := httptest.NewServer(Middleware(inj, nil, m, okHandler()))
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v %s", path, err, resp.Status)
		}
		return body
	}

	first := get("/mo/3")
	if string(first) == string(payload) {
		t.Fatal("rotted replica served clean bytes")
	}
	if string(get("/mo/3")) != string(first) {
		t.Fatal("rot is not persistent: two reads differ")
	}
	if string(get("/mo/4")) != string(payload) {
		t.Fatal("rot leaked onto an unlisted object")
	}
	if m.Corruptions.Value() < 2 {
		t.Errorf("rot serves not counted as corruptions: %d", m.Corruptions.Value())
	}

	inj.ClearRot(3)
	if string(get("/mo/3")) != string(payload) {
		t.Fatal("replica still corrupt after ClearRot")
	}
}
