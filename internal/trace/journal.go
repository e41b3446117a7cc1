package trace

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
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
func (e *Event) Field(key string) string { return lookup(e.Fields, key) }

// Journal is the control plane's flight recorder: structured events (probe
// transitions, repair plans, plan commits, breaker decisions, injected
// faults) in one bounded ring per event type. Appends are O(1) and never
// block the control loop; a full ring overwrites its own oldest event, so a
// flood of one type (fault.injected under chaos) can evict only that type
// and the rare ones — the plan lineage — survive it. The type is therefore
// a retention key and must come from a fixed vocabulary: call sites pass a
// literal, by convention, and Record panics on a type outside the eventType
// shape when its ring is first created. The nil Journal drops everything,
// so recording sites need no disabled path.
type Journal struct {
	mu       sync.Mutex
	epoch    time.Time
	capacity int // per type
	rings    map[string]*typeRing
	next     uint64 // total events ever recorded (== next Seq)
	dropped  uint64 // events overwritten
}

// typeRing holds one type's last capacity events; n counts every one the
// type ever recorded, so n % capacity is the slot the next one overwrites.
type typeRing struct {
	events []Event
	n      int
}

// DefaultJournalCap is the per-type ring size used when NewJournal is given
// a non-positive capacity: enough for hours of control-plane churn, small
// enough — times the dozen-odd event types — to dump wholesale into a log
// on failure.
const DefaultJournalCap = 1024

// NewJournal returns a journal holding the last capacity events of each
// type (DefaultJournalCap when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{epoch: clock(), capacity: capacity, rings: make(map[string]*typeRing)}
}

// eventType is the shape of a journal event type: dotted lower-case
// segments, "plan.applied" or a single "bench".
var eventType = regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)

// Record appends one event. No-op on nil. A type that does not match
// eventType is a programming error and panics the first time it is
// recorded.
func (j *Journal) Record(typ string, fields ...Attr) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.rings[typ]
	if r == nil {
		if !eventType.MatchString(typ) {
			panic(fmt.Sprintf("trace: journal event type %q does not match %s", typ, eventType))
		}
		r = &typeRing{}
		j.rings[typ] = r
	}
	ev := Event{
		Seq:    j.next,
		At:     clock().Sub(j.epoch).Seconds(),
		Type:   typ,
		Fields: fields,
	}
	j.next++
	if len(r.events) < j.capacity {
		r.events = append(r.events, ev)
	} else {
		r.events[r.n%j.capacity] = ev
		j.dropped++
	}
	r.n++
}

// Events snapshots the retained events of every type, merged by Seq:
// oldest to newest (nil-safe).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.next-j.dropped)
	for _, r := range j.rings {
		out = append(out, r.events...)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
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

// Dropped returns how many events the rings have overwritten.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// WriteJSONL dumps the retained events as JSONL, oldest first.
func (j *Journal) WriteJSONL(w io.Writer) error { return writeJSONL(w, j.Events()) }

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
func ReadEventsJSONL(r io.Reader) ([]Event, error) { return readJSONL[Event](r) }

// CountEventTypes tallies events by type, sorted by descending count then
// type name — the journal summary replreport and repltrace print.
func CountEventTypes(events []Event) []NameCount {
	m := make(map[string]int)
	for i := range events {
		m[events[i].Type]++
	}
	return tally(m)
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
