package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the recorder was made; Parent is the ID of the span that caused it (0 for
// a root) and Op numbers the benchmark operation all its spans share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. It is the benchmark's
// own instrument, deliberately not internal/trace or internal/telemetry: the
// ruler must not move with the thing it measures. A nil recorder records
// nothing, so traced and untraced runs share one code path.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID, which end closes.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{len(r.spans) + 1, parent, op, name, now, now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose times were taken elsewhere.
func (r *recorder) add(name string, parent, op int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	from := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{len(r.spans) + 1, parent, op, name, from, from + d.Nanoseconds()})
	r.mu.Unlock()
}

// call runs f inside a span.
func (r *recorder) call(name string, parent, op int, f func()) {
	id := r.begin(name, parent, op)
	f()
	r.end(id)
}

// selfByOp returns, per span name, one value per operation: the summed self
// time of that operation's spans of that name. A span's self time is its
// duration minus the part of it that its child spans cover (children may
// overlap, as the two download chains of a page do, so coverage is a union).
func (r *recorder) selfByOp() map[string][]time.Duration {
	kids := make(map[int][]span)
	for _, s := range r.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	sums := make(map[string]map[int]time.Duration)
	for _, s := range r.spans {
		if s.Op < 0 {
			continue // made outside the measured operations
		}
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		var covered, edge int64 = 0, s.Start
		for _, k := range ks {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		if sums[s.Name] == nil {
			sums[s.Name] = make(map[int]time.Duration)
		}
		sums[s.Name][s.Op] += time.Duration(s.End - s.Start - covered)
	}
	out := make(map[string][]time.Duration)
	for name, byOp := range sums {
		for _, d := range byOp {
			out[name] = append(out[name], d)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			_ = f.Close() // the encoding error is the one to report
			return err
		}
	}
	return f.Close()
}
