package faults

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/htmlrefs"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Metrics counts what the middleware actually injected. All fields are
// nil-tolerant telemetry counters, so the zero Metrics is a no-op sink.
type Metrics struct {
	Failures    *telemetry.Counter // 503s (rate-drawn, outage- and partition-window)
	Resets      *telemetry.Counter // connections dropped before any byte
	Truncations *telemetry.Counter // bodies cut mid-transfer
	Corruptions *telemetry.Counter // bodies served with a bit-flip (wire or rot)
	Delayed     *telemetry.Counter // requests that slept an injected delay

	// Journal, when non-nil, receives one "fault.injected" event per
	// injected fault (kind + site), so the flight recorder interleaves the
	// chaos the middleware caused with the control plane's reaction to it.
	Journal *trace.Journal
	// Site labels this middleware's journal events ("repo" or a site index).
	Site string
}

// record books one injected fault of the given kind into the journal.
func (m Metrics) record(kind string) {
	m.Journal.Record("fault.injected",
		trace.A("kind", kind),
		trace.A(trace.AttrSite, m.Site))
}

// MetricsFor registers the middleware counters under prefix (e.g.
// "faults.site.0.") in the registry. A nil registry yields no-op counters.
func MetricsFor(reg *telemetry.Registry, prefix string) Metrics {
	return Metrics{
		Failures:    reg.Counter(prefix + "injected_failures"),
		Resets:      reg.Counter(prefix + "injected_resets"),
		Truncations: reg.Counter(prefix + "injected_truncations"),
		Corruptions: reg.Counter(prefix + "injected_corruptions"),
		Delayed:     reg.Counter(prefix + "injected_delays"),
	}
}

// Middleware wraps next with fault injection driven by the injector. clock
// reports the elapsed time since the plan was armed (it feeds the outage,
// limp and partition windows); a nil clock pins elapsed to 0, which keeps
// rate faults working and makes windows starting at 0 permanent.
//
// Reset and Truncate abort the connection via http.ErrAbortHandler — the
// mechanism net/http itself designates for "drop this connection without a
// valid response" — so clients observe EOF / unexpected EOF exactly as
// they would from a crashing server. Corrupt (and replica rot on /mo/
// paths) serves a complete, well-formed response whose body carries a
// deterministic bit-flip: only an end-to-end payload check can tell.
func Middleware(inj *Injector, clock func() time.Duration, m Metrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		elapsed := time.Duration(0)
		if clock != nil {
			elapsed = clock()
		}
		d := inj.DecideRequest(elapsed, req.URL.Path)
		if d.Delay > 0 {
			m.Delayed.Inc()
			m.record("delay")
			// Sleep the injected latency, but stop the moment the client
			// gives up — a vanished caller must release the connection (and
			// any admission slot held around this middleware) immediately.
			t := time.NewTimer(d.Delay) //repllint:allow determinism — injected latency is a real wall-clock delay by design
			select {
			case <-t.C:
			case <-req.Context().Done():
				t.Stop()
				panic(http.ErrAbortHandler)
			}
		}
		switch d.Action {
		case Fail:
			m.Failures.Inc()
			m.record("fail")
			http.Error(rw, "fault injected: server unavailable", http.StatusServiceUnavailable)
		case Reset:
			m.Resets.Inc()
			m.record("reset")
			panic(http.ErrAbortHandler)
		case Truncate:
			m.Truncations.Inc()
			m.record("truncate")
			tw := &truncatingWriter{rw: rw}
			next.ServeHTTP(tw, req)
			// Push the partial body out of the server's buffer before
			// dropping the connection, so the client observes a short body
			// rather than no response at all.
			if f, ok := rw.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		case Corrupt:
			m.Corruptions.Inc()
			m.record("corrupt")
			next.ServeHTTP(&corruptingWriter{rw: rw, frac: d.CorruptFrac, mask: d.CorruptMask}, req)
		default:
			// Replica rot: a stored object whose bytes went bad. Persistent
			// (same flip every read, from RotFlip's pure derivation) until
			// the anti-entropy repair clears it.
			if k, ok := htmlrefs.ParseMOPath(req.URL.Path); ok && inj.Rotted(int(k)) {
				frac, mask := inj.RotFlip(int(k))
				m.Corruptions.Inc()
				m.record("rot")
				next.ServeHTTP(&corruptingWriter{rw: rw, frac: frac, mask: mask}, req)
				return
			}
			next.ServeHTTP(rw, req)
		}
	})
}

// errTruncated is the sentinel the truncating writer returns once its byte
// budget is spent; handlers' io.Copy loops stop on it.
var errTruncated = errors.New("faults: response truncated by injection")

// truncatingWriter forwards roughly half of the declared response body and
// then fails every further write. The wrapping middleware drops the
// connection afterwards, so the client sees a short body against the full
// Content-Length — the classic mid-transfer failure.
type truncatingWriter struct {
	rw      http.ResponseWriter
	limit   int64 // bytes still allowed; set at WriteHeader time
	started bool
}

func (t *truncatingWriter) Header() http.Header { return t.rw.Header() }

func (t *truncatingWriter) WriteHeader(status int) {
	t.start()
	t.rw.WriteHeader(status)
}

// start fixes the byte budget from the declared Content-Length: half of it
// (at least one byte, so the response visibly starts), or 512 bytes for
// undeclared (chunked) bodies.
func (t *truncatingWriter) start() {
	if t.started {
		return
	}
	t.started = true
	t.limit = 512
	if cl, err := strconv.ParseInt(t.rw.Header().Get("Content-Length"), 10, 64); err == nil && cl > 0 {
		t.limit = cl / 2
		if t.limit < 1 {
			t.limit = 1
		}
	}
}

func (t *truncatingWriter) Write(p []byte) (int, error) {
	t.start()
	if t.limit <= 0 {
		return 0, errTruncated
	}
	if int64(len(p)) > t.limit {
		p = p[:t.limit]
	}
	n, err := t.rw.Write(p)
	t.limit -= int64(n)
	if err != nil {
		return n, err
	}
	if t.limit <= 0 {
		return n, errTruncated
	}
	return n, nil
}

// corruptingWriter forwards the full response body but XORs the byte at
// offset frac·Content-Length with mask. The transfer completes normally —
// same length, same status, valid HTTP — which is exactly what makes this
// a gray failure: only an end-to-end payload verification catches it.
type corruptingWriter struct {
	rw      http.ResponseWriter
	frac    float64
	mask    byte
	started bool
	target  int64 // absolute offset of the byte to flip; -1 = none left
	written int64
}

func (c *corruptingWriter) Header() http.Header { return c.rw.Header() }

func (c *corruptingWriter) WriteHeader(status int) {
	c.start()
	c.rw.WriteHeader(status)
}

// start fixes the flip offset from the declared Content-Length; undeclared
// (chunked) bodies flip their first byte.
func (c *corruptingWriter) start() {
	if c.started {
		return
	}
	c.started = true
	c.target = 0
	if cl, err := strconv.ParseInt(c.rw.Header().Get("Content-Length"), 10, 64); err == nil && cl > 0 {
		c.target = int64(c.frac * float64(cl))
		if c.target >= cl {
			c.target = cl - 1
		}
	}
}

func (c *corruptingWriter) Write(p []byte) (int, error) {
	c.start()
	if c.target >= c.written && c.target < c.written+int64(len(p)) {
		// Copy-on-write: p may alias a caller buffer that is reused.
		q := make([]byte, len(p))
		copy(q, p)
		q[c.target-c.written] ^= c.mask
		c.target = -1
		p = q
	}
	n, err := c.rw.Write(p)
	c.written += int64(n)
	return n, err
}
