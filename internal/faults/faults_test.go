package faults

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(1, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(1, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%+v\nvs\n%+v", a, b)
	}

	c, err := Generate(1, 10, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}

	for _, level := range []float64{-0.1, 1.1} {
		if _, err := Generate(level, 10, 42); err == nil {
			t.Errorf("level %v accepted", level)
		}
	}
}

func TestGenerateSiteIndependence(t *testing.T) {
	small, err := Generate(1, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(1, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(small.Sites[i], big.Sites[i]) {
			t.Errorf("site %d spec changed when the cluster grew", i)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{ErrorRate: -0.1},
		{ErrorRate: 1.1},
		{ErrorRate: 0.5, ResetRate: 0.4, TruncateRate: 0.2}, // sum > 1
		{Latency: -time.Second},
		{Outages: []Window{{Start: time.Second, End: 0}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated despite being invalid", i)
		}
	}
	good := Spec{ErrorRate: 0.3, ResetRate: 0.3, TruncateRate: 0.3, Latency: time.Millisecond}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	spec := Spec{ErrorRate: 0.2, ResetRate: 0.2, TruncateRate: 0.2, Latency: time.Millisecond, LatencyJitter: time.Millisecond}
	const n = 500
	run := func() []Decision {
		inj := NewInjector(spec, 99)
		out := make([]Decision, n)
		for i := range out {
			out[i] = inj.DecideRequest(0, "")
		}
		return out
	}
	a, b := run(), run()
	var faulted int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically-seeded injectors: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Action != None {
			faulted++
		}
	}
	// ≈60 % of decisions should fault; allow wide slack.
	if faulted < n/4 || faulted > n {
		t.Errorf("%d/%d faulted decisions, expected roughly 60%%", faulted, n)
	}
}

func TestOutageWindowsConsumeNoRandomness(t *testing.T) {
	spec := Spec{ErrorRate: 0.5}
	withOutage := spec
	withOutage.Outages = []Window{{Start: time.Second, End: 2 * time.Second}}

	plain := NewInjector(spec, 5)
	outaged := NewInjector(withOutage, 5)

	// Interleave outage-window decisions; the rate-driven stream must not
	// shift relative to the plain injector.
	for i := 0; i < 100; i++ {
		if d := outaged.DecideRequest(1500*time.Millisecond, ""); d.Action != Fail {
			t.Fatalf("decision inside outage window was %v, want fail", d.Action)
		}
		got := outaged.DecideRequest(0, "")
		want := plain.DecideRequest(0, "")
		if got != want {
			t.Fatalf("decision %d shifted after outage draws: %+v vs %+v", i, got, want)
		}
	}
}

// TestFullOutage: one window spanning the whole clock fails every request,
// the "dead site" the degraded-mode tests arm.
func TestFullOutage(t *testing.T) {
	inj := NewInjector(Spec{Outages: []Window{{Start: 0, End: time.Duration(1<<63 - 1)}}}, 1)
	for _, at := range []time.Duration{0, time.Second, time.Hour, 24 * 365 * time.Hour} {
		if d := inj.DecideRequest(at, "/mo/0"); d.Action != Fail {
			t.Fatalf("full outage at %v decided %v, want fail", at, d.Action)
		}
	}
}

func TestNilPlanIsQuiet(t *testing.T) {
	var p *Plan
	if !p.SiteSpec(0).Quiet() {
		t.Fatal("nil plan is not quiet")
	}
	real := &Plan{Sites: []Spec{{ErrorRate: 0.5}}}
	if real.SiteSpec(0).Quiet() {
		t.Fatal("real spec reported quiet")
	}
	if !real.SiteSpec(5).Quiet() {
		t.Fatal("out-of-range site not quiet")
	}
}

// TestLoadSpikeRateAt pins the demand-side fault arithmetic: outside every
// spike window RateAt is the base rate, inside one it is multiplied by the
// factor, and overlapping spikes compound. A nil plan is the identity.
func TestLoadSpikeRateAt(t *testing.T) {
	p := &Plan{LoadSpikes: []LoadSpike{
		{Window: Window{Start: 1 * time.Second, End: 3 * time.Second}, Factor: 10},
		{Window: Window{Start: 2 * time.Second, End: 4 * time.Second}, Factor: 2},
	}}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 100},
		{1 * time.Second, 1000},         // window start is inclusive
		{2500 * time.Millisecond, 2000}, // overlap compounds
		{3 * time.Second, 200},          // window end is exclusive
		{3500 * time.Millisecond, 200},
		{4 * time.Second, 100},
	}
	for _, c := range cases {
		if got := p.RateAt(100, c.at); got != c.want {
			t.Errorf("RateAt(100, %v) = %v, want %v", c.at, got, c.want)
		}
	}
	var nilPlan *Plan
	if got := nilPlan.RateAt(100, time.Second); got != 100 {
		t.Errorf("nil plan RateAt = %v, want base", got)
	}
}

// TestLoadSpikeValidateAndRoundTrip: bad windows and non-positive factors
// are rejected; a valid spike validates and compounds onto the base rate.
func TestLoadSpikeValidateAndRoundTrip(t *testing.T) {
	bad := []Plan{
		{LoadSpikes: []LoadSpike{{Window: Window{Start: 2 * time.Second, End: time.Second}, Factor: 2}}},
		{LoadSpikes: []LoadSpike{{Window: Window{Start: 0, End: time.Second}, Factor: 0}}},
		{LoadSpikes: []LoadSpike{{Window: Window{Start: 0, End: time.Second}, Factor: -1}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("bad spike plan %d validated", i)
		}
	}

	p := &Plan{Seed: 7, Sites: []Spec{{}}, LoadSpikes: []LoadSpike{
		{Window: Window{Start: 5 * time.Second, End: 7 * time.Second}, Factor: 10},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.RateAt(120, 6*time.Second); got != 1200 {
		t.Errorf("spike plan RateAt = %v, want 1200", got)
	}
}

// streamsSHA pins the SHA-256 of every random stream the package derives
// (a plan's site specs, the repository's and each site's injector
// decisions, the rot flips), rendered at one seed. A stream label that
// changes, or that collides with another label, moves it.
const streamsSHA = "0361ad12b95cf0c767d71152e68bf12ae4f6d49e32aaa9dca4f5b4c6dfd1f764"

// TestStreamsKnownAnswer pins every stream of the package by known answer,
// so a relabelled or aliased stream fails here rather than shifting the
// chaos the live cluster sees.
func TestStreamsKnownAnswer(t *testing.T) {
	p, err := Generate(1, 4, 2026)
	if err != nil {
		t.Fatal(err)
	}
	// Generate leaves the repository quiet; a noisy spec makes its
	// injector draw.
	p.Repo = Spec{ErrorRate: 0.3, Latency: time.Millisecond, LatencyJitter: time.Millisecond}
	var b strings.Builder
	injectors := []*Injector{p.RepoInjector()}
	for i := range p.Sites {
		fmt.Fprintf(&b, "site %d: %+v\n", i, p.Sites[i])
		injectors = append(injectors, p.SiteInjector(i))
	}
	for n, in := range injectors {
		for r := 0; r < 64; r++ {
			fmt.Fprintf(&b, "%d.%d %+v\n", n, r, in.DecideRequest(0, "/mo/1"))
		}
		for k := 0; k < 4; k++ {
			frac, mask := in.RotFlip(k)
			fmt.Fprintf(&b, "%d rot %d %v %d\n", n, k, frac, mask)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != streamsSHA {
		t.Errorf("streams hash to %s, pinned %s:\n%s", got, streamsSHA, b.String())
	}
}
