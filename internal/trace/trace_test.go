package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestIDGenDeterministicAndNonZero(t *testing.T) {
	g1 := NewIDGen(rng.New(7).Split(idStream))
	g2 := NewIDGen(rng.New(7).Split(idStream))
	for i := 0; i < 1000; i++ {
		a, b := g1.TraceID(), g2.TraceID()
		if a != b {
			t.Fatalf("draw %d: %x != %x — ID sequence not a pure function of seed", i, a, b)
		}
		if a == 0 {
			t.Fatalf("draw %d: zero ID", i)
		}
	}
	g3 := NewIDGen(rng.New(8).Split(idStream))
	if g3.TraceID() == NewIDGen(rng.New(7).Split(idStream)).TraceID() {
		t.Fatal("different seeds produced the same first ID")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	tr, sp := TraceID(0xdeadbeef01020304), SpanID(0x0000000000000001)
	v := FormatHeader(tr, sp)
	if len(v) != 33 {
		t.Fatalf("header %q has length %d, want 33", v, len(v))
	}
	gotT, gotS, ok := ParseHeader(v)
	if !ok || gotT != tr || gotS != sp {
		t.Fatalf("roundtrip: got (%x,%x,%v), want (%x,%x,true)", gotT, gotS, ok, tr, sp)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 33), strings.Repeat("z", 16) + "-" + strings.Repeat("0", 16)} {
		if _, _, ok := ParseHeader(bad); ok {
			t.Errorf("ParseHeader(%q) accepted malformed input", bad)
		}
	}
}

func TestBufferBoundDropsNewest(t *testing.T) {
	b := NewBuffer(2)
	b.Add(Span{ID: 1}, Span{ID: 2}, Span{ID: 3})
	if got := b.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := b.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	spans := b.Spans()
	if spans[0].ID != 1 || spans[1].ID != 2 {
		t.Fatalf("bound evicted the head: %+v", spans)
	}
}

func TestNilSafety(t *testing.T) {
	var b *Buffer
	b.Add(Span{})
	if b.Len() != 0 || b.Spans() != nil || b.Dropped() != 0 {
		t.Fatal("nil Buffer not inert")
	}
	var tr *Tracer
	a := tr.StartTrace(SpanPage)
	if a != nil {
		t.Fatal("nil Tracer started a non-nil span")
	}
	a.SetAttr(A("k", "v"))
	a.Event(SpanRetry)
	c := a.StartChild(SpanChain)
	if c != nil {
		t.Fatal("nil Active spawned a non-nil child")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a.StartChild(SpanChain).AddBusy(time.Millisecond)
		a.AddBusy(time.Millisecond)
		a.End()
	}); allocs != 0 {
		t.Fatalf("nil Active allocates: %v allocs/op", allocs)
	}
	if hv := a.HeaderValue(); hv != "" {
		t.Fatalf("nil Active header = %q, want empty", hv)
	}
	a.End()
	if tr.OpenSpans() != 0 {
		t.Fatal("nil Tracer counts open spans")
	}
	if NewTracer(nil, 1, KindClient) != nil {
		t.Fatal("NewTracer(nil buffer) should return nil")
	}
	var j *Journal
	j.Record("x")
	if j.Total() != 0 || j.Events() != nil {
		t.Fatal("nil Journal not inert")
	}
}

func TestTracerSpanTreeAndEndIdempotent(t *testing.T) {
	buf := NewBuffer(0)
	tr := NewTracer(buf, 11, KindClient)
	root := tr.StartTrace(SpanPage)
	root.SetAttr(I(AttrPage, 3))
	child := root.StartChild(SpanChain)
	child.SetAttr(A(AttrChain, "local"))
	root.Event(SpanRetry, A(AttrReason, "timeout"))
	// Concurrent workers lap their busy time onto one span (run under -race).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				child.AddBusy(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := tr.OpenSpans(); got != 2 {
		t.Fatalf("OpenSpans = %d before End, want 2 (root and chain; the event ended itself)", got)
	}
	child.End()
	child.End()                         // idempotent
	child.SetAttr(A("late", "dropped")) // after End: dropped, not a panic
	if got := tr.OpenSpans(); got != 1 {
		t.Fatalf("OpenSpans = %d after the chain's two Ends, want 1", got)
	}
	root.End()
	if got := tr.OpenSpans(); got != 0 {
		t.Fatalf("OpenSpans = %d after every End, want 0", got)
	}

	spans := buf.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3 (double End must not duplicate)", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rootS, chainS, retryS := byName[SpanPage], byName[SpanChain], byName[SpanRetry]
	if rootS.Parent != 0 {
		t.Fatalf("root parent = %x, want 0", rootS.Parent)
	}
	if chainS.Parent != rootS.ID || chainS.Trace != rootS.Trace {
		t.Fatalf("chain not parented under root: %+v vs %+v", chainS, rootS)
	}
	if retryS.Parent != rootS.ID || retryS.Dur != 0 {
		t.Fatalf("event span wrong: %+v", retryS)
	}
	if retryS.Attr(AttrReason) != "timeout" {
		t.Fatalf("event attr lost: %+v", retryS)
	}
	if got, want := root.HeaderValue(), FormatHeader(rootS.Trace, rootS.ID); got != want {
		t.Fatalf("HeaderValue = %q, want %q", got, want)
	}
	if got := chainS.Attr(AttrBusyS); got != "0.001" {
		t.Fatalf("busy_s = %q, want 0.001 (4 workers x 250 us)", got)
	}
	if rootS.Attr(AttrBusyS) != "" || chainS.Attr("late") != "" {
		t.Fatalf("unexpected attrs: root %+v chain %+v", rootS.Attrs, chainS.Attrs)
	}

	// The text tree: root first although it ended last, children indented
	// under it, busy time lifted out of the bracketed attributes.
	var tree bytes.Buffer
	if err := WriteTree(&tree, spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(tree.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], SpanPage) || !strings.Contains(lines[0], "[page=3]") {
		t.Fatalf("tree:\n%s", tree.String())
	}
	if !strings.HasPrefix(lines[1], "  "+SpanChain) || !strings.Contains(lines[1], " busy=1ms  [chain=local]") {
		t.Fatalf("chain line %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "  "+SpanRetry) || !strings.Contains(lines[2], "wall=0s") {
		t.Fatalf("retry line %q", lines[2])
	}
}

func TestJSONLRoundTripAndDeterminism(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 2, Name: SpanPage, Kind: KindSim, Start: 0.5, Dur: 1.25, Attrs: []Attr{I(AttrPage, 7)}},
		{Trace: 1, ID: 3, Parent: 2, Name: SpanChain, Kind: KindSim, Start: 0.5, Dur: 1.0, Attrs: []Attr{A(AttrChain, "remote"), F(AttrXferS, 0.75)}},
	}
	var b1, b2 bytes.Buffer
	if err := WriteJSONL(&b1, spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b2, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("JSONL export not byte-deterministic")
	}
	back, err := ReadJSONL(&b1)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(spans) {
		t.Fatalf("roundtrip length %d, want %d", len(back), len(spans))
	}
	for i := range spans {
		if back[i].Trace != spans[i].Trace || back[i].ID != spans[i].ID ||
			back[i].Name != spans[i].Name || back[i].Dur != spans[i].Dur ||
			back[i].Attr(AttrChain) != spans[i].Attr(AttrChain) {
			t.Fatalf("span %d mismatch: %+v vs %+v", i, back[i], spans[i])
		}
	}
}

func TestChromeExportValidAndDeterministic(t *testing.T) {
	spans := []Span{
		{Trace: 9, ID: 1, Name: SpanPage, Kind: KindSim, Start: 0, Dur: 2, Attrs: []Attr{I(AttrPage, 1)}},
		{Trace: 9, ID: 2, Parent: 1, Name: SpanChain, Start: 0, Dur: 1.5, Attrs: []Attr{A(AttrChain, "local")}},
		{Trace: 10, ID: 3, Name: SpanPage, Start: 2, Dur: 1},
	}
	var b1, b2 bytes.Buffer
	if err := WriteChrome(&b1, spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b2, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("Chrome export not byte-deterministic")
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b1.Bytes(), &file); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) != 3 || file.DisplayTimeUnit != "ms" {
		t.Fatalf("unexpected container: %+v", file)
	}
	ev := file.TraceEvents[0]
	if ev.Ph != "X" || ev.Dur != 2e6 || ev.Args["trace"] != "0000000000000009" {
		t.Fatalf("unexpected event: %+v", ev)
	}
	if file.TraceEvents[0].Tid != 1 || file.TraceEvents[2].Tid != 2 {
		t.Fatalf("tids not assigned in first-seen trace order: %+v", file.TraceEvents)
	}
	if file.TraceEvents[1].Args["parent"] != "0000000000000001" {
		t.Fatalf("parent missing from args: %+v", file.TraceEvents[1])
	}
}

// TestJournalFloodKeepsLineage pins per-type retention: each event type
// keeps its own last-capacity ring, so a chaos run's flood of fault.injected
// evicts only fault.injected and every plan.applied commit survives it.
func TestJournalFloodKeepsLineage(t *testing.T) {
	const capacity = 4
	j := NewJournal(capacity)
	for gen := int64(1); gen <= 5; gen++ { // one more than capacity: the lineage ring wraps too
		j.Record("plan.applied", I("gen", gen), I("parent", gen-1), A("cause", "repair"))
	}
	for i := int64(0); i < 10*capacity; i++ {
		j.Record("fault.injected", I("i", i))
	}
	if j.Total() != 45 {
		t.Fatalf("Total = %d, want 45", j.Total())
	}
	if j.Dropped() != 1+36 {
		t.Fatalf("Dropped = %d, want 37 (1 commit, 36 faults)", j.Dropped())
	}
	evs := j.Events()
	if len(evs) != 2*capacity {
		t.Fatalf("retained %d, want %d", len(evs), 2*capacity)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Seq >= evs[i].Seq {
			t.Fatalf("Events not Seq-ordered at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	// Each ring keeps its newest events, oldest first, fields intact.
	for i, ev := range evs[capacity:] {
		if ev.Type != "fault.injected" || ev.Seq != uint64(41+i) || ev.Field("i") != strconv.Itoa(36+i) {
			t.Fatalf("fault ring slot %d = %+v", i, ev)
		}
	}
	lineage := PlanLineage(evs)
	if len(lineage) != capacity {
		t.Fatalf("lineage has %d lines, want %d:\n%s", len(lineage), capacity, strings.Join(lineage, "\n"))
	}
	for i, line := range lineage {
		gen := i + 2
		if want := fmt.Sprintf("gen %d ← %d: repair ()", gen, gen-1); line != want {
			t.Fatalf("lineage[%d] = %q, want %q", i, line, want)
		}
	}

	// At the default capacity the issue's numbers: 5 commits, then 10 rings'
	// worth of faults, and all 5 lines are still there.
	j = NewJournal(0)
	for gen := int64(1); gen <= 5; gen++ {
		j.Record("plan.applied", I("gen", gen), I("parent", gen-1), A("cause", "adapt"))
	}
	for i := 0; i < 10*DefaultJournalCap; i++ {
		j.Record("fault.injected")
	}
	if got := len(PlanLineage(j.Events())); got != 5 {
		t.Fatalf("lineage after a fault flood has %d lines, want 5", got)
	}
	if j.Dropped() != 9*DefaultJournalCap {
		t.Fatalf("Dropped = %d, want %d", j.Dropped(), 9*DefaultJournalCap)
	}
}

// TestJournalEventTypeShape pins the retention-key check: a dotted
// lower-case type, or a single segment, opens a ring; any other type panics
// when first recorded.
func TestJournalEventTypeShape(t *testing.T) {
	for _, c := range []struct {
		typ string
		ok  bool
	}{
		{"controller.error", true},
		{"bench", true},
		{"Fault.Injected", false},
		{".error", false},
		{"fault.", false},
		{"fault injected", false},
	} {
		j := NewJournal(4)
		recorded := func() (ok bool) {
			defer func() { ok = recover() == nil }()
			j.Record(c.typ)
			return true
		}()
		if recorded != c.ok {
			t.Errorf("Record(%q): recorded = %v, want %v", c.typ, recorded, c.ok)
		}
		if !c.ok && j.Total() != 0 {
			t.Errorf("Record(%q) panicked but counted the event", c.typ)
		}
	}
}

func TestJournalJSONLRoundTripAndCounts(t *testing.T) {
	j := NewJournal(16)
	j.Record("probe.transition", A("site", "s1"), A("to", "down"))
	j.Record("repair.planned", I("rehomed", 12))
	j.Record("probe.transition", A("site", "s1"), A("to", "up"))
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[1].Field("rehomed") != "12" {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
	counts := CountEventTypes(back)
	if len(counts) != 2 || counts[0].Name != "probe.transition" || counts[0].Count != 2 {
		t.Fatalf("CountEventTypes = %+v", counts)
	}
}

func TestJournalHandler(t *testing.T) {
	j := NewJournal(8)
	j.Record("plan.applied", I("moved", 3))
	h := JournalHandler(j)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/journal", nil))
	evs, err := ReadEventsJSONL(rec.Body)
	if err != nil || len(evs) != 1 || evs[0].Type != "plan.applied" {
		t.Fatalf("JSONL body bad: %v %+v", err, evs)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/journal?format=text", nil))
	if !strings.Contains(rec.Body.String(), "plan.applied") || !strings.Contains(rec.Body.String(), "moved=3") {
		t.Fatalf("text body bad: %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	JournalHandler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/journal", nil))
	if rec.Code != 404 {
		t.Fatalf("nil journal served %d, want 404", rec.Code)
	}
}

// synthTrace builds one page-view trace for the analyzer tests.
func synthTrace(tid TraceID, page int, d, localD, remoteD float64, degraded bool, extra ...Span) []Span {
	attrs := []Attr{I(AttrPage, int64(page))}
	if degraded {
		attrs = append(attrs, A(AttrDegraded, "true"))
	}
	spans := []Span{{Trace: tid, ID: 1, Name: SpanPage, Dur: d, Attrs: attrs}}
	if localD > 0 {
		spans = append(spans, Span{Trace: tid, ID: 2, Parent: 1, Name: SpanChain, Dur: localD,
			Attrs: []Attr{A(AttrChain, "local"), F(AttrXferS, localD*0.8), F(AttrQueueS, localD*0.2)}})
	}
	if remoteD > 0 {
		spans = append(spans, Span{Trace: tid, ID: 3, Parent: 1, Name: SpanChain, Dur: remoteD,
			Attrs: []Attr{A(AttrChain, "remote"), F(AttrXferS, remoteD)}})
	}
	for i := range extra {
		extra[i].Trace = tid
		extra[i].Parent = 1
	}
	return append(spans, extra...)
}

func TestAnalyzeCriticalPath(t *testing.T) {
	var spans []Span
	// Page 1, view A: local chain wins (2.0 > 1.0).
	spans = append(spans, synthTrace(100, 1, 2.0, 2.0, 1.0, false)...)
	// Page 1, view B: remote chain wins, with a retry + backoff.
	spans = append(spans, synthTrace(101, 1, 3.0, 1.0, 3.0, false,
		Span{ID: 4, Name: SpanRetry, Attrs: []Attr{A(AttrReason, "timeout")}},
		Span{ID: 5, Name: SpanBackoff, Dur: 0.25})...)
	// Page 2: degraded view — remote wins regardless of chains.
	spans = append(spans, synthTrace(102, 2, 5.0, 0, 0, true,
		Span{ID: 6, Name: SpanFallback, Attrs: []Attr{A(AttrReason, "reset")}})...)
	// An orphaned server span: ignored by trace accounting.
	spans = append(spans, Span{Trace: 999, ID: 7, Name: SpanServe, Dur: 0.1})

	a := Analyze(spans)
	if a.Traces != 3 {
		t.Fatalf("Traces = %d, want 3", a.Traces)
	}
	if a.LocalWins != 1 || a.RemoteWins != 2 {
		t.Fatalf("wins = %d local / %d remote, want 1/2", a.LocalWins, a.RemoteWins)
	}
	if a.Retries != 1 || a.Fallbacks != 1 || a.DegradedViews != 1 {
		t.Fatalf("retries=%d fallbacks=%d degraded=%d, want 1/1/1", a.Retries, a.Fallbacks, a.DegradedViews)
	}
	if a.RetryBackoff != 0.25 {
		t.Fatalf("RetryBackoff = %g, want 0.25", a.RetryBackoff)
	}

	pageStat := func(page int) *PageStats {
		for i := range a.Pages {
			if a.Pages[i].Page == page {
				return &a.Pages[i]
			}
		}
		return nil
	}
	p1 := pageStat(1)
	if p1 == nil || p1.Views != 2 {
		t.Fatalf("page 1 stats bad: %+v", p1)
	}
	if p1.MeanD != 2.5 {
		t.Fatalf("page 1 MeanD = %g, want 2.5", p1.MeanD)
	}
	if p1.LocalWins != 1 || p1.RemoteWins != 1 {
		t.Fatalf("page 1 wins = %d/%d, want 1/1", p1.LocalWins, p1.RemoteWins)
	}
	// View A: xfer 1.6+1.0, queue 0.4. View B: xfer 0.8+3.0, queue 0.2.
	if got, want := p1.Transfer, 1.6+1.0+0.8+3.0; !close(got, want) {
		t.Fatalf("page 1 Transfer = %g, want %g", got, want)
	}
	if got, want := p1.Queue, 0.6; !close(got, want) {
		t.Fatalf("page 1 Queue = %g, want %g", got, want)
	}
	if pageStat(3) != nil {
		t.Fatal("page 3 never appeared, yet has stats")
	}

	slow := a.TopSlowest(2)
	if len(slow) != 2 || slow[0].Page != 2 || slow[0].D != 5.0 || slow[1].D != 3.0 {
		t.Fatalf("TopSlowest = %+v", slow)
	}
	if slow[0].Winner != "remote" {
		t.Fatalf("degraded view winner = %q, want remote", slow[0].Winner)
	}

	names := a.NameCounts()
	if len(names) == 0 || names[0].Name != SpanPage && names[0].Name != SpanChain {
		t.Fatalf("NameCounts = %+v", names)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestAnalyzePredictions: predict spans fill their viewed pages' Predicted
// and PredictedChain, are never page traces, and add no page of their own.
func TestAnalyzePredictions(t *testing.T) {
	predict := func(page int, d float64, chain string) Span {
		return Span{ID: SpanID(page + 1), Name: SpanPredict, Kind: KindPlan, Dur: d,
			Attrs: []Attr{I(AttrPage, int64(page)), A(AttrChain, chain)}}
	}
	spans := synthTrace(100, 1, 2.0, 2.0, 1.0, false)
	spans = append(spans, synthTrace(101, 2, 3.0, 1.0, 3.0, false)...)
	spans = append(spans, predict(1, 1.75, "local"), predict(3, 9, "remote"))

	a := Analyze(spans)
	if a.Traces != 2 || len(a.Pages) != 2 || a.LocalWins+a.RemoteWins != 2 {
		t.Fatalf("traces=%d pages=%d wins=%d, want 2/2/2", a.Traces, len(a.Pages), a.LocalWins+a.RemoteWins)
	}
	if a.Spans != len(spans) {
		t.Fatalf("Spans = %d, want %d", a.Spans, len(spans))
	}
	if p := a.Pages[0]; p.Page != 1 || p.Predicted != 1.75 || p.PredictedChain != "local" {
		t.Fatalf("page 1 = %+v, want predicted 1.75 local", p)
	}
	if p := a.Pages[1]; p.Page != 2 || p.Predicted != 0 || p.PredictedChain != "" {
		t.Fatalf("page 2 carries no prediction, got %+v", p)
	}
}
