package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one control-plane journal entry: a monotone sequence number,
// seconds since the journal was armed, a dotted event type, and structured
// fields.
type Event struct {
	Seq    uint64  `json:"seq"`
	At     float64 `json:"at"` // seconds since the journal's epoch
	Type   string  `json:"type"`
	Fields []Attr  `json:"fields,omitempty"`
}

// Field returns the value of the named field ("" when absent).
func (e *Event) Field(key string) string {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

// Journal is the control plane's flight recorder: a bounded ring buffer of
// structured events (probe transitions, repair plans, ApplyPlan
// reconciles, breaker decisions, injected faults). Appends are O(1) and
// never block the control loop; once the ring is full the oldest events
// are overwritten — a flight recorder keeps the most recent history. The
// nil Journal drops everything, so recording sites need no disabled path.
type Journal struct {
	mu    sync.Mutex
	epoch time.Time
	ring  []Event
	next  uint64 // total events ever appended (== next Seq)
}

// DefaultJournalCap is the ring size used when NewJournal is given a
// non-positive capacity: enough for hours of control-plane churn, small
// enough to dump wholesale into a log on failure.
const DefaultJournalCap = 1024

// NewJournal returns a journal holding the last capacity events
// (DefaultJournalCap when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{epoch: time.Now(), ring: make([]Event, 0, capacity)}
}

// Record appends one event. No-op on nil.
//
//repllint:pure — observability only: the wall-clock timestamp feeds the flight recorder, never model state
func (j *Journal) Record(typ string, fields ...Attr) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ev := Event{
		Seq:    j.next,
		At:     time.Since(j.epoch).Seconds(),
		Type:   typ,
		Fields: fields,
	}
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, ev)
	} else {
		j.ring[int(j.next)%cap(j.ring)] = ev
	}
	j.next++
}

// Events snapshots the retained events, oldest to newest (nil-safe).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.ring) < cap(j.ring) || j.next == uint64(len(j.ring)) {
		return append([]Event(nil), j.ring...)
	}
	// Full ring: the oldest entry sits right where the next write lands.
	out := make([]Event, 0, len(j.ring))
	head := int(j.next) % cap(j.ring)
	out = append(out, j.ring[head:]...)
	out = append(out, j.ring[:head]...)
	return out
}

// Total returns how many events were ever recorded (0 on nil).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Dropped returns how many events the ring has overwritten.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.next <= uint64(cap(j.ring)) {
		return 0
	}
	return j.next - uint64(cap(j.ring))
}

// WriteJSONL dumps the retained events as JSONL, oldest first.
func (j *Journal) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range j.Events() {
		if err := enc.Encode(&ev); err != nil {
			return fmt.Errorf("trace: encode journal event: %w", err)
		}
	}
	return bw.Flush()
}

// WriteText dumps the retained events as readable lines:
//
//	#12  t=1.204s  repair.planned  down=1 rehomed=37
func (j *Journal) WriteText(w io.Writer) error {
	for _, ev := range j.Events() {
		line := fmt.Sprintf("#%-5d t=%.3fs  %-20s", ev.Seq, ev.At, ev.Type)
		for _, f := range ev.Fields {
			line += fmt.Sprintf(" %s=%s", f.Key, f.Value)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// ReadEventsJSONL reads a JSONL event stream until EOF.
func ReadEventsJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode journal event: %w", err)
		}
		out = append(out, ev)
	}
}

// TypeCount is one event type's tally, as returned by CountEventTypes.
type TypeCount struct {
	Type  string
	Count int
}

// CountEventTypes tallies events by type, sorted by descending count then
// type name — the journal summary replreport and repltrace print.
func CountEventTypes(events []Event) []TypeCount {
	m := make(map[string]int)
	for i := range events {
		m[events[i].Type]++
	}
	out := make([]TypeCount, 0, len(m))
	for t, n := range m {
		out = append(out, TypeCount{Type: t, Count: n})
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Count != out[k].Count {
			return out[i].Count > out[k].Count
		}
		return out[i].Type < out[k].Type
	})
	return out
}

// PlanLineage renders the journal's plan.applied events, oldest first, as
// "gen N ← P: cause (k=v ...)" lines: who changed the plan, from which
// generation, and why. A parent that is not the previous line's generation
// means the ring dropped commits in between.
func PlanLineage(events []Event) []string {
	var out []string
	for i := range events {
		ev := &events[i]
		if ev.Type != "plan.applied" || ev.Field("gen") == "" {
			continue
		}
		var rest []string
		for _, f := range ev.Fields {
			if f.Key != "gen" && f.Key != "parent" && f.Key != "cause" {
				rest = append(rest, f.Key+"="+f.Value)
			}
		}
		out = append(out, fmt.Sprintf("gen %s ← %s: %s (%s)",
			ev.Field("gen"), ev.Field("parent"), ev.Field("cause"), strings.Join(rest, " ")))
	}
	return out
}

// JournalHandler serves the journal at an HTTP endpoint (/debug/journal):
// JSONL by default, readable text with ?format=text. A nil journal serves
// 404 — the endpoint is only mounted when the flight recorder is armed,
// but a handler built before arming must stay safe.
func JournalHandler(j *Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if j == nil {
			http.NotFound(w, req)
			return
		}
		var err error
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			err = j.WriteText(w)
		} else {
			w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
			err = j.WriteJSONL(w)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
