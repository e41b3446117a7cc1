package webserve

import (
	"io"
	"net/http"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestEndToEndTracePropagation runs a traced cluster end to end and checks
// the span forest: every FetchPage yields one page root, its chains and
// object fetches, and — because the X-Repl-Trace header propagated — a
// server-side "serve" span per request parented inside the same trace.
func TestEndToEndTracePropagation(t *testing.T) {
	w := tinyWorkload(t)
	p := plannedPlacement(t, w)
	buf := trace.NewBuffer(0)
	journal := trace.NewJournal(64)
	cluster, err := StartClusterOptions(w, p, ClusterOptions{
		Metrics: true, Trace: buf, TraceSeed: 99, Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	client := cluster.Client(ClientOptions{})
	const views = 4
	for j := 0; j < views; j++ {
		pid := workload.PageID(j)
		if _, err := client.FetchPage(cluster.PageURL(pid), pid); err != nil {
			t.Fatal(err)
		}
	}

	spans := buf.Spans()
	var pages, serves, chains, html int
	traceIDs := make(map[trace.TraceID]bool)
	serveByTrace := make(map[trace.TraceID]int)
	spanByID := make(map[trace.SpanID]*trace.Span)
	for i := range spans {
		spanByID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case trace.SpanPage:
			pages++
			traceIDs[s.Trace] = true
			if s.Kind != trace.KindClient {
				t.Fatalf("page span kind %q", s.Kind)
			}
		case trace.SpanServe:
			serves++
			serveByTrace[s.Trace]++
			if s.Kind != trace.KindServer {
				t.Fatalf("serve span kind %q", s.Kind)
			}
			parent := spanByID[s.Parent]
			if parent == nil {
				t.Fatalf("serve span parent %x not in buffer", s.Parent)
			}
			if parent.Trace != s.Trace {
				t.Fatalf("serve span crossed traces: %+v under %+v", s, parent)
			}
			if s.Attr(trace.AttrStatus) != "200" {
				t.Fatalf("serve status %q", s.Attr(trace.AttrStatus))
			}
		case trace.SpanChain:
			chains++
		case trace.SpanHTML:
			html++
		}
	}
	if pages != views {
		t.Fatalf("page roots = %d, want %d", pages, views)
	}
	if html != views {
		t.Fatalf("html spans = %d, want %d", html, views)
	}
	if chains == 0 {
		t.Fatal("no chain spans")
	}
	if serves == 0 {
		t.Fatal("no server-side spans — header propagation broken")
	}
	for tid := range traceIDs {
		if serveByTrace[tid] == 0 {
			t.Fatalf("trace %x has no serve spans", tid)
		}
	}

	// The analyzer consumes live traces with the same code path as sim
	// traces.
	a := trace.Analyze(spans)
	if a.Traces != views {
		t.Fatalf("Analyze saw %d traces, want %d", a.Traces, views)
	}
	if len(a.TopSlowest(3)) != 3 {
		t.Fatalf("TopSlowest(3) returned %d entries", len(a.TopSlowest(3)))
	}

	// /debug/journal is mounted on every server when a journal is armed.
	journal.Record("test.event", trace.A("k", "v"))
	resp, err := http.Get(cluster.RepoBase + "/debug/journal")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/journal: status %d, %d bytes", resp.StatusCode, len(body))
	}

	// build.info rides along whenever metrics are enabled.
	snap := cluster.Metrics.Snapshot()
	found := false
	for _, g := range snap.Gauges {
		if g.Name == "build.info" && g.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("build.info gauge missing")
	}
	if len(snap.Infos) == 0 {
		t.Fatal("build infos missing")
	}

	// A closed cluster has ended every span it or its client started: the
	// serve spans end when their handlers return, which Close waits for.
	if err := cluster.Close(); err != nil {
		t.Fatal(err)
	}
	if n := cluster.Tracer.OpenSpans(); n != 0 {
		t.Fatalf("%d spans still open after Close", n)
	}
}

// TestTraceDeterministicIDs pins that two clusters with the same TraceSeed
// hand out identical ID sequences (the live system cannot be golden-tested
// end to end — wall-clock durations differ — but identity must be).
func TestTraceDeterministicIDs(t *testing.T) {
	mk := func() []trace.SpanID {
		buf := trace.NewBuffer(0)
		tr := trace.NewTracer(buf, 5, trace.KindClient)
		var ids []trace.SpanID
		for i := 0; i < 16; i++ {
			sp := tr.StartTrace(trace.SpanPage)
			_, id := sp.Context()
			ids = append(ids, id)
			sp.End()
		}
		if n := tr.OpenSpans(); n != 0 {
			t.Fatalf("%d spans still open", n)
		}
		return ids
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ID %d differs: %x vs %x", i, a[i], b[i])
		}
	}
}

// TestFullBufferCountsEverySpan drives a live tracer's buffer full: the
// same page sequence, traced into an unbounded and into a 32-span buffer,
// must start and end the same spans — the bounded one keeps 32 and counts
// the rest, client and server side alike — and leave none open.
func TestFullBufferCountsEverySpan(t *testing.T) {
	w := tinyWorkload(t)
	p := plannedPlacement(t, w)
	run := func(max int) (kept int, total int64) {
		buf := trace.NewBuffer(max)
		cluster, err := StartClusterOptions(w, p, ClusterOptions{Trace: buf, TraceSeed: 99})
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		client := cluster.Client(ClientOptions{})
		for j := 0; j < 6; j++ {
			pid := workload.PageID(j % w.NumPages())
			if _, err := client.FetchPage(cluster.PageURL(pid), pid); err != nil {
				t.Fatal(err)
			}
		}
		if err := cluster.Close(); err != nil {
			t.Fatal(err)
		}
		if n := cluster.Tracer.OpenSpans(); n != 0 {
			t.Fatalf("buffer bound %d: %d spans still open after Close", max, n)
		}
		return buf.Len(), int64(buf.Len()) + buf.Dropped()
	}
	_, all := run(0)
	kept, total := run(32)
	if kept != 32 {
		t.Fatalf("bounded buffer kept %d spans, want 32", kept)
	}
	if total != all || all <= 32 {
		t.Fatalf("bounded buffer counted %d spans, unbounded %d: every started span must be counted, and the run must overflow 32", total, all)
	}
}
