// Package trace is the repo's one span model, shared by the live HTTP
// system (internal/webserve), the fluid simulator (internal/httpsim) and
// the planner's phases (internal/core): deterministic trace/span
// identifiers drawn from dedicated seeded rng streams (the same seed yields
// the identical span forest), an `X-Repl-Trace` propagation header, Chrome
// trace-event, JSONL and text-tree exporters (export.go), a bounded
// per-type event journal for the control plane (journal.go), and an Eq. 5
// critical-path analyzer over recorded span forests (analyze.go).
//
// The design follows the repo's telemetry idiom: every entry point is
// nil-tolerant, so a disabled tracer costs one nil check and zero
// allocations on the instrumented path.
package trace

import (
	"encoding/binary"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// TraceID identifies one request tree (one page view, end to end).
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// Attr is one string-valued span or journal attribute. Values are
// pre-formatted strings so encoding is trivially deterministic.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A builds a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// I builds an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// F builds a float attribute (shortest round-trippable form, so encodings
// are byte-stable for equal values).
func F(key string, v float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// Span is one completed timed operation. Times are float64 seconds since
// the owning buffer's epoch — the simulator's virtual clock and the live
// system's wall clock fit the same schema, which is what makes simulated
// and real executions directly comparable.
type Span struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"` // 0 = root
	Name   string  `json:"name"`
	Kind   string  `json:"kind,omitempty"` // client | server | sim
	Start  float64 `json:"start"`          // seconds since epoch
	Dur    float64 `json:"dur"`            // seconds
	Attrs  []Attr  `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute ("" when absent).
func (s *Span) Attr(key string) string { return lookup(s.Attrs, key) }

// lookup is the one attribute search behind Span.Attr and Event.Field.
func lookup(attrs []Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Shared span names. The webserve client and the httpsim fluid model emit
// the same vocabulary so one analyzer reads both.
const (
	SpanPage     = "page"     // root: one page view; attrs page, site
	SpanChain    = "chain"    // one Eq. 5 parallel chain; attr chain=local|remote
	SpanHTML     = "html"     // the page document fetch
	SpanMO       = "mo"       // one multimedia-object fetch
	SpanOpt      = "opt"      // one optional-object follow-up
	SpanBackoff  = "backoff"  // one retry backoff sleep
	SpanRetry    = "retry"    // zero-duration marker: one extra attempt
	SpanFallback = "fallback" // a repository-fallback fetch
	SpanBreaker  = "breaker"  // zero-duration marker: a breaker decision
	SpanServe    = "serve"    // server-side handling of one request
	SpanFailover = "failover" // simulated degraded-view failover cost
	SpanPredict  = "predict"  // the plan's Eq. 5 time for one page; attrs page, chain (not a page view)
)

// Planner phase span names: BENCHMARK.json's per-layer names minus the
// "_ms" unit, so the span tree, the bench file and the docs spell each
// phase one way (core's vocabulary test holds them together).
const (
	SpanPlan              = "core.plan" // the caller's root over one core.Plan
	SpanPartition         = "core.partition"
	SpanStorageRestore    = "core.storage_restore"    // attr deallocs
	SpanProcessingRestore = "core.processing_restore" // attr proc_flips
	SpanRefine            = "core.refine"
	SpanOffload           = "core.offload" // attrs offload_rounds, offload_messages
)

// Span kinds.
const (
	KindClient = "client"
	KindServer = "server"
	KindSim    = "sim"
	KindPlan   = "plan"
)

// Common attribute keys.
const (
	AttrPage     = "page"
	AttrSite     = "site"
	AttrChain    = "chain" // "local" | "remote"
	AttrObject   = "object"
	AttrBytes    = "bytes"
	AttrReason   = "reason"
	AttrStatus   = "status"
	AttrDegraded = "degraded"
	AttrQueueS   = "queue_s"
	AttrXferS    = "transfer_s"
	AttrOvhdS    = "overhead_s"
	AttrBusyS    = "busy_s" // Active.AddBusy's total, written at End

	// Planner counters, "core." + the key being a BENCHMARK.json name.
	AttrDeallocs        = "deallocs"
	AttrProcFlips       = "proc_flips"
	AttrOffloadRounds   = "offload_rounds"
	AttrOffloadMessages = "offload_messages"
)

// Buffer collects completed spans. Append order is the canonical export
// order, so deterministic producers (httpsim) must append deterministically;
// concurrent producers (the live client and servers) get safe appends and
// accept scheduler-dependent order. A nil Buffer drops everything.
//
// Retention is pointer-free, so the garbage collector never scans what a
// long run keeps: each span is a fixed-size record of numbers, and its
// name, kind and attributes are length-prefixed strings in one byte arena
// the record points into by offset. Spans decodes them back, so a kept
// span reads exactly as it was added, except that an empty Attrs comes
// back nil. Once a bounded buffer is full it stays full (it never evicts),
// so Tracer starts every later span as a dropped one that is counted and
// never built; Len() + Dropped() is every span ended against the buffer.
type Buffer struct {
	mu     sync.Mutex
	recs   []record
	arena  []byte // per record: name, kind, attr count, then key/value pairs
	nattrs int    // attributes over all records, so Spans allocates them once
	max    int

	full    atomic.Bool // len(recs) reached max; never cleared
	dropped atomic.Int64
}

// record is one kept span. It must hold no pointers (TestRecordHasNoPointers):
// its strings live in the arena from off on.
type record struct {
	trace, id, parent uint64
	start, dur        float64
	off               int
}

// NewBuffer returns a buffer keeping at most max spans (0 = unbounded).
// Once full, further spans are counted as dropped rather than evicting old
// ones: for post-mortem analysis the head of a run matters more than an
// arbitrary suffix.
func NewBuffer(max int) *Buffer {
	return &Buffer{max: max}
}

// Add appends completed spans. No-op on nil.
func (b *Buffer) Add(spans ...Span) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range spans {
		b.put(&spans[i])
	}
}

// put encodes one span into the arena, or counts it dropped. b.mu held.
func (b *Buffer) put(s *Span) {
	if b.full.Load() {
		b.dropped.Add(1)
		return
	}
	// Both slices double when they grow (the records up to the bound):
	// append's 1.25x steps for large slices would copy them about five
	// times over instead of about twice.
	if len(b.recs) == cap(b.recs) {
		n := 2*cap(b.recs) + 64
		if b.max > 0 {
			n = min(n, b.max)
		}
		b.recs = append(make([]record, 0, n), b.recs...)
	}
	need := len(s.Name) + len(s.Kind) + (3+2*len(s.Attrs))*binary.MaxVarintLen64
	for _, a := range s.Attrs {
		need += len(a.Key) + len(a.Value)
	}
	if cap(b.arena)-len(b.arena) < need {
		b.arena = append(make([]byte, 0, 2*cap(b.arena)+need), b.arena...)
	}
	b.recs = append(b.recs, record{
		trace: uint64(s.Trace), id: uint64(s.ID), parent: uint64(s.Parent),
		start: s.Start, dur: s.Dur, off: len(b.arena),
	})
	b.arena = appendString(b.arena, s.Name)
	b.arena = appendString(b.arena, s.Kind)
	b.arena = binary.AppendUvarint(b.arena, uint64(len(s.Attrs)))
	for _, a := range s.Attrs {
		b.arena = appendString(b.arena, a.Key)
		b.arena = appendString(b.arena, a.Value)
	}
	b.nattrs += len(s.Attrs)
	if len(b.recs) == b.max {
		b.full.Store(true)
	}
}

// appendString appends s with its uvarint length prefix.
func appendString(arena []byte, s string) []byte {
	return append(binary.AppendUvarint(arena, uint64(len(s))), s...)
}

// Spans snapshots the buffered spans in append order (nil-safe). Every
// string of the snapshot is a substring of one copy of the arena, and every
// Attrs a capacity-limited window of one shared slice, so decoding costs
// three allocations however many spans there are.
func (b *Buffer) Spans() []Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.recs) == 0 {
		return nil
	}
	spans := make([]Span, len(b.recs))
	attrs := make([]Attr, b.nattrs)
	d := decoder{b: b.arena, s: string(b.arena)}
	for i, r := range b.recs {
		d.off = r.off
		s := &spans[i]
		*s = Span{
			Trace: TraceID(r.trace), ID: SpanID(r.id), Parent: SpanID(r.parent),
			Name: d.str(), Kind: d.str(), Start: r.start, Dur: r.dur,
		}
		if n := d.uvarint(); n > 0 {
			s.Attrs = attrs[:n:n]
			for j := range s.Attrs {
				s.Attrs[j] = Attr{Key: d.str(), Value: d.str()}
			}
			attrs = attrs[n:]
		}
	}
	return spans
}

// decoder walks the arena: lengths from its bytes, strings as substrings
// of one string copy of them.
type decoder struct {
	b   []byte
	s   string
	off int
}

func (d *decoder) uvarint() int {
	v, n := binary.Uvarint(d.b[d.off:])
	d.off += n
	return int(v)
}

func (d *decoder) str() string {
	n := d.uvarint()
	d.off += n
	return d.s[d.off-n : d.off]
}

// Len returns the number of buffered spans.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recs)
}

// Dropped returns how many spans were discarded by the bound.
func (b *Buffer) Dropped() int64 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// IDGen allocates non-zero trace and span IDs from a seeded rng stream:
// the ID sequence is a pure function of the stream's seed, so equal seeds
// yield identical span forests. Safe for concurrent use.
type IDGen struct {
	mu sync.Mutex
	s  *rng.Stream
}

// NewIDGen wraps a dedicated rng stream. The stream must not be shared
// with any other consumer — ID draws would shift its sequence.
func NewIDGen(s *rng.Stream) *IDGen {
	return &IDGen{s: s}
}

// next returns the next non-zero draw.
func (g *IDGen) next() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if v := g.s.Uint64(); v != 0 {
			return v
		}
	}
}

// TraceID allocates a trace identifier.
func (g *IDGen) TraceID() TraceID { return TraceID(g.next()) }

// SpanID allocates a span identifier.
func (g *IDGen) SpanID() SpanID { return SpanID(g.next()) }

// Header is the propagation header carrying "<trace>-<span>" in fixed-width
// hex: the client stamps it on every request, servers parent their serve
// spans under it.
const Header = "X-Repl-Trace"

// FormatHeader renders the header value for a (trace, parent span) pair.
func FormatHeader(t TraceID, s SpanID) string {
	var v [33]byte
	putHex(v[:16], uint64(t))
	v[16] = '-'
	putHex(v[17:], uint64(s))
	return string(v[:])
}

// putHex writes x as 16 lower-case hex digits, zero-padded.
func putHex(dst []byte, x uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[x&0xf]
		x >>= 4
	}
}

// ParseHeader parses a header value; ok is false for anything malformed.
func ParseHeader(v string) (TraceID, SpanID, bool) {
	if len(v) != 33 || v[16] != '-' {
		return 0, 0, false
	}
	t, err := strconv.ParseUint(v[:16], 16, 64)
	if err != nil {
		return 0, 0, false
	}
	s, err := strconv.ParseUint(v[17:], 16, 64)
	if err != nil {
		return 0, 0, false
	}
	return TraceID(t), SpanID(s), true
}

// Tracer starts live (wall-clock) spans against a shared buffer and epoch.
// One Tracer per process — the webserve cluster, its clients and its
// servers share one, so every span lands on a single timeline. The nil
// Tracer starts nil Actives; every Active method no-ops on nil, so a
// disabled trace propagates for free through the whole call graph.
type Tracer struct {
	buf   *Buffer
	ids   *IDGen
	open  *atomic.Int64 // spans started and not yet ended, over every view
	epoch time.Time
	kind  string
}

// clock is the package's one wall-clock read: live span timing and
// journal timestamps, never model state.
var clock = time.Now //repllint:allow determinism — observability only: live span timing and journal timestamps; the simulator's spans carry virtual-clock times

// idStream is the dedicated rng stream label for live span IDs, disjoint
// from every other consumer of the seed (webserve's client uses 401/402).
const idStream uint64 = 421

// NewTracer builds a tracer emitting kind-tagged spans into buf, with IDs
// drawn from the seed's dedicated stream. Returns nil on a nil buffer, so
// callers wire `opts.Trace` through unconditionally.
func NewTracer(buf *Buffer, seed uint64, kind string) *Tracer {
	if buf == nil {
		return nil
	}
	return &Tracer{
		buf:   buf,
		ids:   NewIDGen(rng.New(seed).Split(idStream)),
		open:  new(atomic.Int64),
		epoch: clock(),
		kind:  kind,
	}
}

// WithKind returns a tracer view emitting spans of a different kind while
// sharing this tracer's buffer, ID stream and epoch — the cluster's client
// and servers land on one timeline with collision-free span IDs.
func (t *Tracer) WithKind(kind string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{buf: t.buf, ids: t.ids, open: t.open, epoch: t.epoch, kind: kind}
}

// OpenSpans returns how many spans this tracer and its WithKind views have
// started and not yet ended (0 on nil). A traced test that ends with it
// above zero reached a path that never calls End.
func (t *Tracer) OpenSpans() int64 {
	if t == nil {
		return 0
	}
	return t.open.Load()
}

// Now returns seconds since the tracer's epoch (0 on nil).
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return clock().Sub(t.epoch).Seconds()
}

// Active is a started, not-yet-ended span. End completes it into the
// buffer; every started Active must be ended on all paths (Tracer.OpenSpans
// counts the ones that were not, and the traced tests end by asserting 0).
//
// An Active started on a full buffer is dropped: it has no span ID, no
// times and no attributes, and End only counts it in Buffer.Dropped. It
// still carries its trace, so its children and the servers it calls are
// dropped and counted the same way.
type Active struct {
	tr    *Tracer
	start time.Time
	busy  atomic.Int64 // ns, accumulated by AddBusy
	drop  bool         // started on a full buffer; fixed at start

	mu    sync.Mutex
	span  Span
	ended bool
}

// start begins a span with the given identity, or a dropped one when the
// buffer is full: no ID draw, no clock read.
func (t *Tracer) start(name string, trace TraceID, parent SpanID) *Active {
	if t == nil {
		return nil
	}
	t.open.Add(1)
	if t.buf.full.Load() {
		return &Active{tr: t, drop: true, span: Span{Trace: trace}}
	}
	now := clock()
	return &Active{
		tr:    t,
		start: now,
		span: Span{
			Trace:  trace,
			ID:     t.ids.SpanID(),
			Parent: parent,
			Name:   name,
			Kind:   t.kind,
			Start:  now.Sub(t.epoch).Seconds(),
		},
	}
}

// StartTrace starts a new root span under a fresh trace ID.
func (t *Tracer) StartTrace(name string) *Active {
	if t == nil {
		return nil
	}
	var id TraceID
	if !t.buf.full.Load() {
		id = t.ids.TraceID()
	}
	return t.start(name, id, 0)
}

// StartRemote starts a span parented under a propagated (trace, span)
// context — the server half of a client request.
func (t *Tracer) StartRemote(name string, trace TraceID, parent SpanID) *Active {
	return t.start(name, trace, parent)
}

// StartChild starts a child span under a (nil on a nil receiver).
func (a *Active) StartChild(name string) *Active {
	if a == nil {
		return nil
	}
	return a.tr.start(name, a.span.Trace, a.span.ID)
}

// SetAttr attaches an attribute. No-op on nil, on a dropped span or
// after End.
func (a *Active) SetAttr(attrs ...Attr) {
	if a == nil || a.drop {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.ended {
		a.span.Attrs = append(a.span.Attrs, attrs...)
	}
}

// AddBusy accumulates busy time spent under the span by concurrent workers
// (the planner's per-site phases overlap, so busy can exceed the wall
// duration); End writes a non-zero total as the busy_s attribute. No-op on
// nil.
func (a *Active) AddBusy(d time.Duration) {
	if a != nil {
		a.busy.Add(int64(d))
	}
}

// Event records a zero-duration child span (a point annotation: one retry,
// one breaker decision). No-op on nil.
func (a *Active) Event(name string, attrs ...Attr) {
	if a == nil {
		return
	}
	ev := a.tr.start(name, a.span.Trace, a.span.ID)
	ev.SetAttr(attrs...)
	ev.endWithDur(0)
}

// Context returns the span's (trace, span) identity for propagation.
// Zero values on nil.
func (a *Active) Context() (TraceID, SpanID) {
	if a == nil {
		return 0, 0
	}
	return a.span.Trace, a.span.ID
}

// HeaderValue renders the propagation header for requests issued under
// this span ("" on nil — callers skip the header entirely).
func (a *Active) HeaderValue() string {
	if a == nil {
		return ""
	}
	return FormatHeader(a.span.Trace, a.span.ID)
}

// End completes the span into the tracer's buffer. Idempotent; no-op on
// nil.
func (a *Active) End() {
	if a == nil {
		return
	}
	if a.drop {
		a.endWithDur(0)
		return
	}
	a.endWithDur(clock().Sub(a.start).Seconds())
}

// endWithDur completes with an explicit duration.
func (a *Active) endWithDur(dur float64) {
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return
	}
	a.ended = true
	a.tr.open.Add(-1)
	if a.drop {
		a.mu.Unlock()
		a.tr.buf.dropped.Add(1)
		return
	}
	if b := a.busy.Load(); b != 0 {
		a.span.Attrs = append(a.span.Attrs, F(AttrBusyS, time.Duration(b).Seconds()))
	}
	s := a.span
	s.Dur = dur
	a.mu.Unlock()
	a.tr.buf.Add(s)
}
