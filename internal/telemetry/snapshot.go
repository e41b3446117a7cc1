package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Snapshot is a point-in-time copy of a registry's instruments, ordered by
// name so encodings are deterministic and diffable.
type Snapshot struct {
	Counters []CounterPoint `json:"counters"`
	Gauges   []GaugePoint   `json:"gauges,omitempty"`
	Infos    []InfoPoint    `json:"infos,omitempty"`
}

// InfoPoint is one string fact (build metadata and the like).
type InfoPoint struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// CounterPoint is one counter's snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge's snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot copies the registry's current state. An empty (never nil)
// snapshot is returned for a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Counters: []CounterPoint{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedNames(r.counters) {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range sortedNames(r.gauges) {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: r.gauges[name].Value()})
	}
	for _, name := range sortedNames(r.infos) {
		s.Infos = append(s.Infos, InfoPoint{Name: name, Value: r.infos[name]})
	}
	return s
}

// WriteJSON encodes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as aligned name/value lines.
func (s *Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "%-40s %g\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, in := range s.Infos {
		if _, err := fmt.Fprintf(w, "%-40s %s\n", in.Name, in.Value); err != nil {
			return err
		}
	}
	return nil
}

// CounterValue returns a snapshot counter by name (0 when absent).
func (s *Snapshot) CounterValue(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Handler serves the registry — the /metrics endpoint. JSON by default;
// ?format=text (or an Accept header preferring text/plain) selects the
// aligned-text rendering. A nil registry serves empty snapshots.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		wantText := req.URL.Query().Get("format") == "text"
		if !wantText && req.URL.Query().Get("format") == "" {
			accept := req.Header.Get("Accept")
			wantText = strings.HasPrefix(accept, "text/plain")
		}
		var err error
		if wantText {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			err = snap.WriteText(w)
		} else {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			err = snap.WriteJSON(w)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
