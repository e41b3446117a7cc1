package httpsim

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/policies"
	"repro/internal/rng"
	"repro/internal/trace"
)

// requireSameRun fails unless two simulations agree on every accumulator,
// counter and sample with ==, and on the span bytes they pushed into their
// configs' trace buffers.
func requireSameRun(t *testing.T, a, b *Result, ca, cb Config) {
	t.Helper()
	if a.Policy != b.Policy {
		t.Errorf("policy %q vs %q", a.Policy, b.Policy)
	}
	if a.PageRT != b.PageRT || a.OptPerView != b.OptPerView || a.OptRT != b.OptRT {
		t.Errorf("accumulators differ:\n%+v %+v %+v\nvs\n%+v %+v %+v",
			a.PageRT, a.OptPerView, a.OptRT, b.PageRT, b.OptPerView, b.OptRT)
	}
	if !slices.Equal(a.SitePageRT, b.SitePageRT) {
		t.Error("per-site accumulators differ")
	}
	if a.LocalRequests != b.LocalRequests || a.RepoRequests != b.RepoRequests || a.DegradedViews != b.DegradedViews {
		t.Errorf("counters differ: %d/%d/%d vs %d/%d/%d", a.LocalRequests, a.RepoRequests, a.DegradedViews,
			b.LocalRequests, b.RepoRequests, b.DegradedViews)
	}
	if a.CompositeMean() != b.CompositeMean() {
		t.Errorf("composite mean %v vs %v", a.CompositeMean(), b.CompositeMean())
	}
	if !slices.Equal(a.Samples.Values(), b.Samples.Values()) {
		t.Error("retained samples differ")
	}
	if ca.RetainSamples && a.Samples.N() == 0 {
		t.Error("RetainSamples kept nothing")
	}
	if ca.Trace != nil {
		var ja, jb bytes.Buffer
		if err := trace.WriteJSONL(&ja, ca.Trace.Spans()); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteJSONL(&jb, cb.Trace.Spans()); err != nil {
			t.Fatal(err)
		}
		if ja.Len() == 0 || !bytes.Equal(ja.Bytes(), jb.Bytes()) {
			t.Errorf("span exports differ (%d vs %d bytes)", ja.Len(), jb.Len())
		}
	}
}

// TestRecordReplayMatchesRun: Replay(Record(...)) is Run, to the last bit,
// under every replay-time option — they are one loop, so an option Run
// honours a replayed trace honours too. set is called once per simulation
// so each gets its own sinks.
func TestRecordReplayMatchesRun(t *testing.T) {
	w, est := simEnv(t, 81)
	local := func() Decider { return policies.NewLocal(w) }
	remote := func() Decider { return policies.NewRemote(w) }
	outage := OutageConfig{Enabled: true, Availability: 0.7, FailoverDelay: 0.5}
	cases := []struct {
		name string
		dec  func() Decider
		set  func(cfg *Config)
		wide bool // replay every site at once against Run's inline walk
	}{
		{name: "local", dec: local, set: func(*Config) {}},
		{name: "remote", dec: remote, set: func(*Config) {}},
		{name: "redirect penalty", dec: remote, set: func(cfg *Config) { cfg.RemoteRedirectPenalty = 0.2 }},
		{name: "outage", dec: local, set: func(cfg *Config) { cfg.Outage = outage }},
		{name: "queueing", dec: remote, set: func(cfg *Config) { cfg.Queueing = true }},
		{name: "warm LRU", dec: func() Decider {
			lru, err := policies.NewLRU(w, model.FullBudgets(w).Scale(w, 0.3, 1), 4)
			if err != nil {
				t.Fatal(err)
			}
			return lru
		}, set: func(cfg *Config) { cfg.Warmup = true }},
		{name: "retained samples", dec: local, set: func(cfg *Config) { cfg.RetainSamples = true }},
		{name: "spans", dec: remote, set: func(cfg *Config) {
			cfg.Trace = trace.NewBuffer(0)
			cfg.Outage = outage
			cfg.Queueing = true
		}},
		{name: "Workers 1 vs 0", dec: remote, wide: true, set: func(cfg *Config) {
			cfg.Trace = trace.NewBuffer(0)
			cfg.RetainSamples = true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			config := func() Config {
				cfg := DefaultConfig(w)
				cfg.RequestsPerSite = 150
				cfg.Workers = 1
				tc.set(&cfg)
				return cfg
			}
			runCfg, replayCfg := config(), config()
			if tc.wide {
				replayCfg.Workers = 0
			}
			live, err := Run(w, est, tc.dec(), runCfg, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			// Record reads the record-time fields only and feeds no sink.
			tr, err := Record(w, est, runCfg, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := Replay(w, tr, tc.dec(), replayCfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, live, replayed, runCfg, replayCfg)
		})
	}
}

func TestTraceValidation(t *testing.T) {
	w, est := simEnv(t, 84)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 20
	tr, err := Record(w, est, cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}

	bad := *tr
	bad.NumSites = 99
	if err := bad.Validate(w); err == nil {
		t.Error("shape mismatch accepted")
	}

	tr2, _ := Record(w, est, cfg, rng.New(8))
	tr2.Events[0][0].Page = -1
	if err := tr2.Validate(w); err == nil {
		t.Error("negative page accepted")
	}

	tr3, _ := Record(w, est, cfg, rng.New(8))
	// Move a page to the wrong site's stream.
	other := w.Sites[1].Pages[0]
	tr3.Events[0][0].Page = other
	if err := tr3.Validate(w); err == nil {
		t.Error("cross-site page accepted")
	}

	tr4, _ := Record(w, est, cfg, rng.New(8))
	tr4.Events[0][0].LocalRate = 0
	if err := tr4.Validate(w); err == nil {
		t.Error("zero rate accepted")
	}

	tr5, _ := Record(w, est, cfg, rng.New(8))
	n := slices.IndexFunc(tr5.Events[0], func(ev TraceEvent) bool { return len(ev.Optional) > 0 })
	if n < 0 {
		t.Fatal("site 0 recorded no view with optional picks")
	}
	ev := &tr5.Events[0][n]
	ev.OptDraws = ev.OptDraws[:len(ev.OptDraws)-1]
	if err := tr5.Validate(w); err == nil {
		t.Error("optional picks without their draws accepted")
	}
}

func TestRecordValidation(t *testing.T) {
	w, est := simEnv(t, 85)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 0
	if _, err := Record(w, est, cfg, rng.New(1)); err == nil {
		t.Error("zero requests accepted")
	}
}

func TestTraceDeterministic(t *testing.T) {
	w, est := simEnv(t, 86)
	cfg := DefaultConfig(w)
	cfg.RequestsPerSite = 40
	a, err := Record(w, est, cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(w, est, cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("identical seeds produced different traces")
	}
}
