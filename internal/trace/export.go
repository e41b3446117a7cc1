package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WriteJSONL writes spans as compact JSON, one span per line — the repo's
// canonical on-disk trace form (read back by ReadJSONL and cmd/repltrace).
// The encoding is byte-deterministic for a given span sequence.
func WriteJSONL(w io.Writer, spans []Span) error { return writeJSONL(w, spans) }

// ReadJSONL reads a JSONL span stream until EOF.
func ReadJSONL(r io.Reader) ([]Span, error) { return readJSONL[Span](r) }

// writeJSONL is the one line-per-item encoder behind the span and journal
// files.
func writeJSONL[T any](w io.Writer, items []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range items {
		if err := enc.Encode(&items[i]); err != nil {
			return fmt.Errorf("trace: encode %T: %w", items[i], err)
		}
	}
	return bw.Flush()
}

// readJSONL decodes a JSONL stream of T until EOF.
func readJSONL[T any](r io.Reader) ([]T, error) {
	dec := json.NewDecoder(r)
	var out []T
	for {
		var v T
		if err := dec.Decode(&v); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode %T: %w", v, err)
		}
		out = append(out, v)
	}
}

// save creates path and runs write over it, closing on every path.
func save(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// SaveJSONL writes spans to path.
func SaveJSONL(path string, spans []Span) error {
	return save(path, func(w io.Writer) error { return WriteJSONL(w, spans) })
}

// LoadJSONL reads spans from path.
func LoadJSONL(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return ReadJSONL(bufio.NewReader(f))
}

// chromeEvent is one Chrome trace-event ("X" complete event). Timestamps
// and durations are microseconds, per the trace-event format; args carry
// the span identity (hex) and attributes. A map keeps attribute encoding
// sorted — encoding/json marshals map keys in sorted order — so the export
// is byte-deterministic for a given span sequence.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeFile is the JSON-object container form, the one Perfetto and
// chrome://tracing load directly.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes spans in Chrome trace-event JSON (loadable in
// Perfetto). Each trace is mapped to its own tid in first-seen order so
// page views render as separate tracks; span identity and attributes land
// in args.
func WriteChrome(w io.Writer, spans []Span) error {
	tids := make(map[TraceID]int)
	file := chromeFile{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for i := range spans {
		s := &spans[i]
		tid, ok := tids[s.Trace]
		if !ok {
			tid = len(tids) + 1
			tids[s.Trace] = tid
		}
		args := make(map[string]string, len(s.Attrs)+2)
		args["trace"] = fmt.Sprintf("%016x", uint64(s.Trace))
		args["span"] = fmt.Sprintf("%016x", uint64(s.ID))
		if s.Parent != 0 {
			args["parent"] = fmt.Sprintf("%016x", uint64(s.Parent))
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		file.TraceEvents = append(file.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  s.Kind,
			Ph:   "X",
			Ts:   s.Start * 1e6,
			Dur:  s.Dur * 1e6,
			Pid:  1,
			Tid:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&file); err != nil {
		return fmt.Errorf("trace: encode chrome trace: %w", err)
	}
	return nil
}

// SaveChrome writes the Chrome trace-event form to path.
func SaveChrome(path string, spans []Span) error {
	return save(path, func(w io.Writer) error { return WriteChrome(w, spans) })
}

// WriteTree renders a span forest as indented text, one line per span —
// wall duration, busy time where AddBusy recorded any, the other attributes
// in brackets — with children under their parent in start order:
//
//	core.plan                  wall=1.8ms
//	  core.storage_restore     wall=1.2ms busy=4.3ms  [deallocs=7]
//
// A span whose parent is not in spans renders as a root.
func WriteTree(w io.Writer, spans []Span) error {
	present := make(map[SpanID]bool, len(spans))
	for i := range spans {
		present[spans[i].ID] = true
	}
	kids := make(map[SpanID][]*Span)
	for i := range spans {
		s := &spans[i]
		parent := s.Parent
		if !present[parent] {
			parent = 0
		}
		kids[parent] = append(kids[parent], s)
	}
	var walk func(parent SpanID, depth int) error
	walk = func(parent SpanID, depth int) error {
		group := kids[parent]
		sort.SliceStable(group, func(i, k int) bool { return group[i].Start < group[k].Start })
		for _, s := range group {
			line := fmt.Sprintf("%*s%-*s wall=%s", depth*2, "", 26-depth*2, s.Name, seconds(s.Dur))
			var rest []string
			for _, a := range s.Attrs {
				if a.Key == AttrBusyS {
					busy, _ := strconv.ParseFloat(a.Value, 64) // written by End with FormatFloat
					line += " busy=" + seconds(busy).String()
					continue
				}
				rest = append(rest, a.Key+"="+a.Value)
			}
			if len(rest) > 0 {
				line += "  [" + strings.Join(rest, " ") + "]"
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
			if err := walk(s.ID, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0, 0)
}

// seconds converts a span time to a Duration at microsecond precision.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}
