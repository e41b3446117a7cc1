package trace

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

// randString draws a string of 0 to 300 bytes mixing ASCII with two-,
// three- and four-byte runes, so lengths past 127 need two-byte prefixes.
func randString(s *rng.Stream) string {
	pieces := []string{"a", "Z", "0", "-", "é", "日本", "🙂", " "}
	n := s.IntN(301)
	var b strings.Builder
	for b.Len() < n {
		b.WriteString(pieces[s.IntN(len(pieces))])
	}
	return b.String()
}

func randSpan(s *rng.Stream) Span {
	sp := Span{
		Trace:  TraceID(s.Uint64()),
		ID:     SpanID(s.Uint64()),
		Parent: SpanID(s.Uint64() >> uint(s.IntN(65))),
		Start:  s.Float64() * 1e3,
		Dur:    s.Float64(),
	}
	if s.Bool(0.2) {
		sp.Name, sp.Kind = "", "" // empty strings survive too
	} else {
		sp.Name, sp.Kind = randString(s), randString(s)
	}
	for i, n := 0, s.IntN(9); i < n; i++ {
		sp.Attrs = append(sp.Attrs, Attr{Key: randString(s), Value: randString(s)})
	}
	return sp
}

// TestBufferRoundTrip pins the arena encoding: seeded spans come back from
// Spans field for field and in append order, whatever their strings hold.
func TestBufferRoundTrip(t *testing.T) {
	s := rng.New(35)
	var want []Span
	b := NewBuffer(0)
	for len(want) < 500 {
		batch := make([]Span, s.IntN(4))
		for i := range batch {
			batch[i] = randSpan(s)
		}
		b.Add(batch...)
		want = append(want, batch...)
	}
	// An empty but non-nil Attrs comes back nil, as Buffer documents.
	b.Add(Span{Name: SpanPage, Attrs: []Attr{}})
	want = append(want, Span{Name: SpanPage})

	got := b.Spans()
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("span %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("got %d spans, want %d", len(got), len(want))
	}
	if b.Len() != len(want) || b.Dropped() != 0 {
		t.Fatalf("Len = %d, Dropped = %d, want %d and 0", b.Len(), b.Dropped(), len(want))
	}

	// The spans share one attribute slice; appending to one span's Attrs
	// must not write into the next span's.
	var i int
	for i = 0; i+1 < len(got) && (len(got[i].Attrs) == 0 || len(got[i+1].Attrs) == 0); i++ {
	}
	if i+1 == len(got) {
		t.Fatal("no two neighbouring spans with attributes")
	}
	next := got[i+1].Attrs[0]
	_ = append(got[i].Attrs, A("extra", "attr"))
	if got[i+1].Attrs[0] != next {
		t.Fatalf("append to span %d's Attrs overwrote span %d's", i, i+1)
	}
}

// pointerFree reports whether values of type t hold no pointers at all, so
// the garbage collector can skip a slice of them without scanning.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestRecordHasNoPointers holds the retained record pointer-free: a string
// or slice put back into it would make every GC cycle re-mark every kept
// span.
func TestRecordHasNoPointers(t *testing.T) {
	rt := reflect.TypeOf(record{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); !pointerFree(f.Type) {
			t.Errorf("record.%s is a %s, which holds pointers", f.Name, f.Type)
		}
	}
	if pointerFree(reflect.TypeOf(Span{})) {
		t.Fatal("pointerFree misses the strings and slice of Span")
	}
}

// fullTracer returns a tracer whose buffer is already full.
func fullTracer(t testing.TB) (*Tracer, *Buffer) {
	buf := NewBuffer(1)
	tr := NewTracer(buf, 3, KindServer)
	tr.StartTrace(SpanPage).End()
	if buf.Len() != 1 || buf.Dropped() != 0 {
		t.Fatalf("Len = %d, Dropped = %d after one span into a 1-span buffer", buf.Len(), buf.Dropped())
	}
	return tr, buf
}

// TestFullBufferBuildsNothing pins the full state: a span started there
// draws no ID, reads no clock and keeps no attribute, yet it, its
// children, its events and the server span its header parents are all
// counted, and the open-span count still returns to zero.
func TestFullBufferBuildsNothing(t *testing.T) {
	tr, buf := fullTracer(t)
	twin := NewIDGen(rng.New(3).Split(idStream))
	twin.TraceID()
	twin.SpanID() // the kept span's two draws

	reads := 0
	defer func(c func() time.Time) { clock = c }(clock)
	clock = func() time.Time { reads++; return time.Time{} }

	root := tr.StartTrace(SpanPage)
	root.SetAttr(A(AttrPage, "1"))
	root.AddBusy(time.Millisecond)
	child := root.StartChild(SpanHTML)
	child.Event(SpanRetry, A(AttrReason, "timeout"))
	tid, sid, ok := ParseHeader(child.HeaderValue())
	if !ok {
		t.Fatalf("dropped span's header %q does not parse", child.HeaderValue())
	}
	serve := tr.WithKind(KindServer).StartRemote(SpanServe, tid, sid)
	if got := tr.OpenSpans(); got != 3 {
		t.Fatalf("OpenSpans = %d, want 3 (root, html, serve)", got)
	}
	serve.End()
	child.End()
	root.End()
	root.End() // idempotent: one drop per span

	if reads != 0 {
		t.Fatalf("dropped spans read the clock %d times", reads)
	}
	if got, want := tr.ids.SpanID(), twin.SpanID(); got != want {
		t.Fatalf("dropped spans drew IDs: next draw %x, want %x", got, want)
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("OpenSpans = %d after every End", tr.OpenSpans())
	}
	if buf.Len() != 1 || buf.Dropped() != 4 {
		t.Fatalf("Len = %d, Dropped = %d, want 1 and 4 (page, html, retry, serve)", buf.Len(), buf.Dropped())
	}
}

// TestSpanEndedAfterFillIsDropped pins that the bound holds for a span
// started before the buffer filled and ended after: it is counted, not kept.
func TestSpanEndedAfterFillIsDropped(t *testing.T) {
	buf := NewBuffer(2)
	tr := NewTracer(buf, 5, KindClient)
	late := tr.StartTrace(SpanPage)
	tr.StartTrace(SpanPage).End()
	tr.StartTrace(SpanPage).End()
	late.SetAttr(A(AttrPage, "9"))
	late.End()
	if buf.Len() != 2 || buf.Dropped() != 1 || tr.OpenSpans() != 0 {
		t.Fatalf("Len = %d, Dropped = %d, OpenSpans = %d, want 2, 1, 0", buf.Len(), buf.Dropped(), tr.OpenSpans())
	}
	for _, s := range buf.Spans() {
		if s.Attr(AttrPage) != "" {
			t.Fatalf("the late span was kept: %+v", s)
		}
	}
}

// TestDroppedSpanAllocs pins the full state's price: starting, annotating
// and ending a dropped span allocates the Active and nothing else.
func TestDroppedSpanAllocs(t *testing.T) {
	tr, buf := fullTracer(t)
	attrs := []Attr{A(AttrSite, "0"), A("path", "/mo/17"), I(AttrStatus, 200)}
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.StartRemote(SpanServe, 1, 1)
		sp.SetAttr(attrs...)
		sp.End()
	})
	if allocs > 1 {
		t.Fatalf("a dropped span makes %v allocations, want at most 1", allocs)
	}
	if buf.Len() != 1 || buf.Dropped() != 101 || tr.OpenSpans() != 0 {
		t.Fatalf("Len = %d, Dropped = %d, OpenSpans = %d, want 1, 101, 0", buf.Len(), buf.Dropped(), tr.OpenSpans())
	}
}

// TestFormatHeaderMatchesSprintf pins the hand-written hex against the
// format it replaced.
func TestFormatHeaderMatchesSprintf(t *testing.T) {
	s := rng.New(16)
	for i := 0; i < 2000; i++ {
		tid, sid := TraceID(s.Uint64()>>uint(s.IntN(64))), SpanID(s.Uint64()>>uint(s.IntN(64)))
		if i == 0 {
			tid, sid = 0, ^SpanID(0)
		}
		if got, want := FormatHeader(tid, sid), fmt.Sprintf("%016x-%016x", uint64(tid), uint64(sid)); got != want {
			t.Fatalf("FormatHeader(%x, %x) = %q, want %q", tid, sid, got, want)
		}
	}
}

// serveSpan is one server-side span as the trace middleware makes it, with
// its attributes built beforehand so only the tracer is measured.
func serveSpan(tr *Tracer, attrs []Attr) {
	sp := tr.StartRemote(SpanServe, 1, 1)
	sp.SetAttr(attrs[:2]...)
	sp.SetAttr(attrs[2])
	sp.End()
}

// BenchmarkSpanKept measures a span that the buffer keeps. A fresh buffer
// every 65,536 spans keeps the arena the size the live cluster's is.
func BenchmarkSpanKept(b *testing.B) {
	attrs := []Attr{A(AttrSite, "0"), A("path", "/mo/17"), I(AttrStatus, 200)}
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%(1<<16) == 0 {
			tr = NewTracer(NewBuffer(0), 1, KindServer)
		}
		serveSpan(tr, attrs)
	}
}

// BenchmarkSpanDropped measures a span started on a full buffer.
func BenchmarkSpanDropped(b *testing.B) {
	tr, _ := fullTracer(b)
	attrs := []Attr{A(AttrSite, "0"), A("path", "/mo/17"), I(AttrStatus, 200)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		serveSpan(tr, attrs)
	}
}
