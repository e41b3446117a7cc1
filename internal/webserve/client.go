package webserve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/htmlrefs"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// PageResult reports one client page download.
type PageResult struct {
	Page        workload.PageID
	Elapsed     time.Duration
	HTMLBytes   int64
	LocalChain  ChainResult // objects fetched from the local server
	RemoteChain ChainResult // objects fetched from the repository

	// Retries counts extra request attempts beyond each first try (HTML and
	// objects, including attempts on the fallback route).
	Retries int
	// Fallbacks counts MO fetches that failed on their assigned server and
	// were re-routed to the repository. Fallback objects and bytes are
	// accounted in RemoteChain — the repository is who actually served them.
	Fallbacks int
	// DegradedHTML reports that the page document itself came from the
	// repository's master copy because the hosting site was unreachable;
	// every reference then points at the repository (Eq. 5's remote chain).
	DegradedHTML bool
	// Brownout is the serving site's brownout tier when the page was
	// delivered degraded under overload (X-Repl-Brownout); 0 for a
	// full-fidelity page.
	Brownout int
}

// Degraded reports whether any part of the download abandoned its assigned
// server for the repository.
func (r *PageResult) Degraded() bool {
	return r.DegradedHTML || r.Fallbacks > 0
}

// ChainResult summarizes one parallel download chain.
type ChainResult struct {
	Objects int
	Bytes   int64
	Elapsed time.Duration
}

// ClientOptions tunes the client's resilience behaviour. The zero value of
// each field selects the default noted on it; Retries and BreakerThreshold
// accept -1 to mean "disabled" (single attempt / no breaker).
type ClientOptions struct {
	// Retries is the number of extra attempts after a failed request.
	// Attempts are spaced by exponential backoff with seeded jitter.
	// Default 2; -1 disables retries.
	Retries int
	// JitterSeed seeds the backoff jitter stream, making retry schedules
	// reproducible for a fixed request order.
	JitterSeed uint64
	// FallbackBase, when set, is the repository's base URL: a request whose
	// retries are exhausted on a local server is re-issued there — the
	// repository stores every object (and every page's master copy), so the
	// download completes via the remote chain instead of failing.
	FallbackBase string
	// BreakerThreshold is the consecutive-failure count that trips a
	// per-host circuit breaker: once a host has failed this many getRetry
	// calls in a row (transient failures only — a 404 is an authoritative
	// answer from a healthy server), further requests to it fail fast
	// without touching the network until a cooldown elapses, at which point
	// a single half-open probe decides whether to close the circuit again.
	// Fast-failed requests still take the repository fallback, so a tripped
	// breaker converts retry storms against a dead site into immediate
	// degraded service. Default 3; -1 disables the breaker.
	BreakerThreshold int
	// Metrics, when non-nil, receives the client's resilience counters
	// (client.retries, client.fallbacks, client.degraded_pages,
	// client.request_failures) plus the reason-labeled breakdowns
	// (client.retries_by.*, client.fallbacks_by.*).
	Metrics *telemetry.Registry
	// Trace, when non-nil, makes the client emit a span tree per FetchPage
	// — page root, Eq. 5 chains, per-object fetches, every retry, backoff
	// sleep, breaker decision and fallback — and stamp the X-Repl-Trace
	// header on every request so servers parent their serve spans under it.
	Trace *trace.Tracer
}

// The client's fixed timing.
const (
	// requestTimeout bounds each HTTP request end to end (connect through
	// body), so a stalled server cannot hang FetchPage forever.
	requestTimeout = 15 * time.Second
	// backoffBase is the first retry's nominal delay; each further retry
	// doubles it up to backoffMax. The actual delay is uniformly jittered in
	// [d/2, d).
	backoffBase = 25 * time.Millisecond
	backoffMax  = time.Second
	// breakerCooldown is the nominal open interval before the half-open
	// probe. The actual interval is jittered in [d, 3d/2) on the breaker's
	// own seeded stream so a fleet of clients does not re-probe in lockstep.
	breakerCooldown = 250 * time.Millisecond
)

// DefaultClientOptions returns the production defaults described above.
func DefaultClientOptions() ClientOptions {
	return ClientOptions{
		Retries:          2,
		BreakerThreshold: 3,
	}
}

// normalize resolves zero values to defaults and -1 sentinels to off.
func (o ClientOptions) normalize() ClientOptions {
	def := DefaultClientOptions()
	if o.Retries == 0 {
		o.Retries = def.Retries
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = def.BreakerThreshold
	} else if o.BreakerThreshold < 0 {
		o.BreakerThreshold = 0
	}
	return o
}

// Client downloads pages the way the paper's browser model does: the HTML
// first, then the embedded (compulsory) objects split by host into two
// chains fetched concurrently — one persistent connection per host, objects
// pipelined sequentially on each — with the page time being the max of the
// chains. Optional links are not fetched.
//
// The client is resilient: every request carries a timeout, failures are
// retried with exponential backoff and seeded jitter, and — when a
// FallbackBase is configured — a request that keeps failing on a local
// server degrades to the repository, which stores everything. The paper's
// Section-2 premise (repository as always-on root, replicas as
// accelerators) is exactly what makes that degradation sound.
type Client struct {
	w    *workload.Workload
	http *http.Client
	opts ClientOptions
	// Verify makes the client check every object's synthetic content.
	// Verification failures (corrupt or truncated bodies) count as request
	// failures and are retried.
	Verify bool

	// jitter drives backoff randomization and breakerJitter the breaker's
	// cooldown spread; guarded by jmu because the two chains retry
	// concurrently. Both are Split-derived children of the JitterSeed root
	// (see the stream labels below), never the root itself.
	jmu           sync.Mutex
	jitter        *rng.Stream
	breakerJitter *rng.Stream

	// Per-host circuit breakers, created on first contact.
	brmu     sync.Mutex
	breakers map[string]*hostBreaker

	cRetries, cFallbacks, cDegraded, cFailures *telemetry.Counter
	cTrips, cFastFails                         *telemetry.Counter
	// Reason-labeled breakdowns of retries and fallbacks, keyed by the
	// failureReason vocabulary; a missing key yields a nil (no-op) counter.
	cRetryBy, cFallbackBy map[string]*telemetry.Counter

	tracer *trace.Tracer
}

// failureReason vocabulary: why a request attempt failed. The same strings
// label the client.retries_by.* / client.fallbacks_by.* counters and the
// reason attribute on retry/fallback spans.
const (
	reasonTimeout     = "timeout"
	reasonReset       = "reset"
	reason5xx         = "5xx"
	reasonBreakerOpen = "breaker_open"
	reasonCorrupt     = "corrupt"
	reasonShed        = "shed"
	reasonOther       = "other"
)

// failureReason classifies a request failure for the labeled counters and
// span attributes.
func failureReason(err error) string {
	var ie *IntegrityError
	if errors.As(err, &ie) {
		return reasonCorrupt
	}
	var se *statusError
	if errors.As(err, &se) {
		if se.code == http.StatusTooManyRequests {
			return reasonShed
		}
		if se.code >= 500 {
			return reason5xx
		}
		return reasonOther
	}
	var boe *breakerOpenError
	if errors.As(err, &boe) {
		return reasonBreakerOpen
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return reasonTimeout
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) ||
		strings.Contains(err.Error(), "connection reset") ||
		strings.Contains(err.Error(), "EOF") {
		return reasonReset
	}
	return reasonOther
}

// countRetry bumps the retry total and its reason-labeled breakdown.
func (c *Client) countRetry(reason string) {
	c.cRetries.Inc()
	if c.cRetryBy != nil {
		c.cRetryBy[reason].Inc()
	}
}

// countFallback bumps the fallback total and its reason-labeled breakdown.
func (c *Client) countFallback(reason string) {
	c.cFallbacks.Inc()
	if c.cFallbackBy != nil {
		c.cFallbackBy[reason].Inc()
	}
}

// Dedicated rng stream labels for the client's randomized delays. The
// client used to consume its root stream directly for backoff, so its draw
// sequence collided with any other consumer seeded with the same value
// (fault plans included); Split-derived children are pure functions of
// (seed, label), so client timing noise can never shift another stream's
// sequence — TestClientJitterIsolatedFromFaultPlans pins this.
const (
	clientBackoffStream uint64 = iota + 401
	clientBreakerStream
)

// NewClient builds a client for the workload with DefaultClientOptions.
func NewClient(w *workload.Workload) *Client {
	return NewClientOptions(w, ClientOptions{})
}

// NewClientOptions builds a client with explicit resilience options.
func NewClientOptions(w *workload.Workload, opts ClientOptions) *Client {
	opts = opts.normalize()
	c := &Client{
		w:    w,
		opts: opts,
		http: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 4,
			},
		},
		jitter:        rng.New(opts.JitterSeed).Split(clientBackoffStream),
		breakerJitter: rng.New(opts.JitterSeed).Split(clientBreakerStream),
		breakers:      make(map[string]*hostBreaker),
		tracer:        opts.Trace,
	}
	if reg := opts.Metrics; reg != nil {
		c.cRetries = reg.Counter("client.retries")
		c.cFallbacks = reg.Counter("client.fallbacks")
		c.cDegraded = reg.Counter("client.degraded_pages")
		c.cFailures = reg.Counter("client.request_failures")
		c.cTrips = reg.Counter("client.breaker_trips")
		c.cFastFails = reg.Counter("client.breaker_fastfails")
		c.cRetryBy = map[string]*telemetry.Counter{
			reasonTimeout:     reg.Counter("client.retries_by.timeout"),
			reasonReset:       reg.Counter("client.retries_by.reset"),
			reason5xx:         reg.Counter("client.retries_by.5xx"),
			reasonBreakerOpen: reg.Counter("client.retries_by.breaker_open"),
			reasonCorrupt:     reg.Counter("client.retries_by.corrupt"),
			reasonShed:        reg.Counter("client.retries_by.shed"),
			reasonOther:       reg.Counter("client.retries_by.other"),
		}
		c.cFallbackBy = map[string]*telemetry.Counter{
			reasonTimeout:     reg.Counter("client.fallbacks_by.timeout"),
			reasonReset:       reg.Counter("client.fallbacks_by.reset"),
			reason5xx:         reg.Counter("client.fallbacks_by.5xx"),
			reasonBreakerOpen: reg.Counter("client.fallbacks_by.breaker_open"),
			reasonCorrupt:     reg.Counter("client.fallbacks_by.corrupt"),
			reasonShed:        reg.Counter("client.fallbacks_by.shed"),
			reasonOther:       reg.Counter("client.fallbacks_by.other"),
		}
	}
	return c
}

// Options returns the client's normalized options.
func (c *Client) Options() ClientOptions { return c.opts }

// bodySpec says what a request does with a 200 body besides count it:
// check it as object k's payload while it streams in, and keep the bytes for
// a caller that returns them. A chain's object fetch keeps nothing, so no
// object is ever held whole by someone who does not hand it on.
type bodySpec struct {
	verify bool
	k      workload.ObjectID
	keep   bool
}

// keepDoc is the bodySpec of an HTML document.
var keepDoc = bodySpec{keep: true}

// discard hides io.Discard's ReaderFrom, whose 8 KB reads io.CopyBuffer would
// use: an unverified body is read in chunks too, so only verifying differs.
var discard io.Writer = struct{ io.Writer }{io.Discard}

// get issues one request and reads a 200's body to its end as spec says,
// stamping the trace-propagation header when the request runs under a span.
// ctx cancellation aborts the request mid-flight. It returns the kept bytes
// (nil unless spec.keep), the body's length, and the response headers so
// callers can observe serving degradation (brownout tier).
func (c *Client) get(ctx context.Context, url, traceHdr string, spec bodySpec) ([]byte, int64, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	if traceHdr != "" {
		req.Header.Set(trace.Header, traceHdr)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Drain so the persistent connection is reusable.
		_, _ = io.Copy(io.Discard, resp.Body)
		se := &statusError{url: url, code: resp.StatusCode, status: resp.Status}
		se.retryAfter = parseRetryAfter(resp.Header)
		return nil, 0, resp.Header, se
	}
	var kept bytes.Buffer
	body := io.Reader(resp.Body)
	if spec.keep {
		// One buffer of the declared length (unless it is past any object's,
		// and so not to be believed); it grows only when none was declared.
		kept.Grow(int(max(0, min(resp.ContentLength, 8<<20))))
		body = io.TeeReader(body, &kept)
	}
	var n int64
	if spec.verify {
		n, err = verifyStream(c.w, anySource, spec.k, body)
	} else {
		buf := chunkPool.Get().(*chunk)
		n, err = io.CopyBuffer(discard, body, buf[:])
		chunkPool.Put(buf)
	}
	if err != nil {
		// A content mismatch stops reading where it is found: drain the
		// rest, as above. After a transport error this returns at once.
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, 0, resp.Header, err
	}
	return kept.Bytes(), n, resp.Header, nil
}

// parseRetryAfter extracts the server's retry hint: the millisecond-precise
// X-Repl-Retry-After-Ms when present, the standard whole-second Retry-After
// otherwise, zero when the response carries neither (or neither parses).
func parseRetryAfter(h http.Header) time.Duration {
	if v, err := strconv.ParseInt(h.Get(admission.RetryAfterMillisHeader), 10, 64); err == nil && v > 0 {
		return time.Duration(v) * time.Millisecond
	}
	if v, err := strconv.ParseInt(h.Get("Retry-After"), 10, 64); err == nil && v > 0 {
		return time.Duration(v) * time.Second
	}
	return 0
}

// statusError is a non-200 response; 5xx and 429 are retryable, other 4xx
// are not (a 404 from a local server means the placement does not store the
// object — a routing fact, not a transient fault).
type statusError struct {
	url    string
	code   int
	status string
	// retryAfter is the server's jittered retry hint on a 429 shed; retries
	// wait at least this long regardless of the backoff schedule.
	retryAfter time.Duration
}

func (e *statusError) Error() string {
	return fmt.Sprintf("webserve: GET %s: %s", e.url, e.status)
}

// retryable classifies an error: transport failures, timeouts, short reads,
// 5xx responses and 429 sheds are worth retrying; other 4xx are
// authoritative. An open circuit counts as transient — the host may recover,
// and meanwhile the repository fallback should take the request.
func retryable(err error) bool {
	if se, ok := err.(*statusError); ok {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	return err != nil
}

// breakerOpenError is the fast-fail a tripped circuit returns without
// touching the network.
type breakerOpenError struct{ host string }

func (e *breakerOpenError) Error() string {
	return fmt.Sprintf("webserve: circuit open for %s", e.host)
}

// hostBreaker is one host's circuit: closed (normal service) → open after
// BreakerThreshold consecutive transient failures (every request fails
// fast) → half-open once the cooldown elapses (exactly one probe goes
// through; its outcome closes or re-opens the circuit).
type hostBreaker struct {
	mu        sync.Mutex
	open      bool
	halfOpen  bool
	probing   bool
	fails     int
	openUntil time.Time
}

// allow reports whether a request to the host may proceed right now, and
// transitions open → half-open when the cooldown has elapsed.
func (b *hostBreaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.halfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	case b.open:
		if now.Before(b.openUntil) {
			return false
		}
		b.open = false
		b.halfOpen = true
		b.probing = true
		return true
	default:
		return true
	}
}

// onSuccess closes the circuit.
func (b *hostBreaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.open, b.halfOpen, b.probing = false, false, false
	b.fails = 0
}

// onFailure records one transient failure; at the threshold (or on a failed
// half-open probe) the circuit opens until openUntil. Returns whether this
// call tripped it.
func (b *hostBreaker) onFailure(threshold int, until time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.halfOpen || b.fails >= threshold {
		b.open, b.halfOpen, b.probing = true, false, false
		b.openUntil = until
		return true
	}
	return false
}

// breakerFor returns (creating if needed) the breaker of a host.
func (c *Client) breakerFor(host string) *hostBreaker {
	c.brmu.Lock()
	defer c.brmu.Unlock()
	b := c.breakers[host]
	if b == nil {
		b = &hostBreaker{}
		c.breakers[host] = b
	}
	return b
}

// breakerCooldown returns the jittered open interval, drawn from the
// breaker's dedicated stream.
func (c *Client) breakerCooldown() time.Duration {
	const d = breakerCooldown
	c.jmu.Lock()
	defer c.jmu.Unlock()
	return d + time.Duration(c.breakerJitter.Uniform(0, float64(d/2)))
}

// backoff returns the jittered delay before retry attempt (1-based).
func (c *Client) backoff(attempt int) time.Duration {
	d := backoffBase << uint(attempt-1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	c.jmu.Lock()
	defer c.jmu.Unlock()
	return d/2 + time.Duration(c.jitter.Uniform(0, float64(d/2)))
}

// getRetry fetches a URL with the configured retry schedule; a body that
// fails spec's verification counts as a retryable error like any other
// (truncated and corrupted transfers look exactly like that). sp, when
// non-nil, is the span the request runs under: its context propagates via
// X-Repl-Trace, and every retry, backoff sleep and breaker decision lands
// as a child span or event beneath it. A canceled ctx returns immediately
// without feeding the breaker or the failure counters — a canceled request
// is not evidence against the host.
//
// A 429 shed is an authoritative answer from a live, overloaded server: it
// waits at least the server's jittered Retry-After hint before retrying,
// and it never feeds the circuit breaker — tripping breakers on sheds would
// convert a transient overload into a self-inflicted outage.
//
// hdr is the last response's headers (nil when the failure never produced
// a response).
func (c *Client) getRetry(ctx context.Context, url string, spec bodySpec, sp *trace.Active) (data []byte, n int64, hdr http.Header, retries int, err error) {
	var br *hostBreaker
	if c.opts.BreakerThreshold > 0 {
		br = c.breakerFor(hostOf(url))
		if !br.allow(time.Now()) {
			c.cFastFails.Inc()
			sp.Event(trace.SpanBreaker, trace.A(trace.AttrReason, "open"), trace.A(trace.AttrSite, hostOf(url)))
			return nil, 0, nil, 0, &breakerOpenError{host: hostOf(url)}
		}
	}
	for attempt := 0; ; attempt++ {
		data, n, hdr, err = c.get(ctx, url, sp.HeaderValue(), spec)
		if err != nil && ctx.Err() != nil {
			return nil, 0, hdr, retries, ctx.Err()
		}
		if err == nil {
			if br != nil {
				br.onSuccess()
			}
			return data, n, hdr, retries, nil
		}
		shed := failureReason(err) == reasonShed
		if !retryable(err) || attempt >= c.opts.Retries {
			c.cFailures.Inc()
			// A non-retryable error is an authoritative answer from a live
			// server, not evidence the host is down — only transient
			// failures feed the breaker. A shed is equally authoritative:
			// the server is up and policing its queue.
			if br != nil && retryable(err) && !shed {
				if br.onFailure(c.opts.BreakerThreshold, time.Now().Add(c.breakerCooldown())) {
					c.cTrips.Inc()
					sp.Event(trace.SpanBreaker, trace.A(trace.AttrReason, "trip"), trace.A(trace.AttrSite, hostOf(url)))
				}
			} else if br != nil {
				br.onSuccess()
			}
			return nil, 0, hdr, retries, err
		}
		retries++
		reason := failureReason(err)
		c.countRetry(reason)
		sp.Event(trace.SpanRetry, trace.A(trace.AttrReason, reason))
		wait := c.backoff(attempt + 1)
		var se *statusError
		if errors.As(err, &se) && se.retryAfter > wait {
			// Honor the server's shed hint: retrying sooner than it asked
			// just lands back in the queue it is trying to drain.
			wait = se.retryAfter
		}
		bo := sp.StartChild(trace.SpanBackoff)
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			bo.End()
			return nil, 0, hdr, retries, ctx.Err()
		}
		bo.End()
	}
}

// fetchMO downloads one object from url, degrading to the repository when
// the assigned server keeps failing and a fallback base is configured.
// parent, when non-nil, receives an "mo" child span covering the whole
// fetch including any fallback leg. n is the bytes read from whoever served
// the object.
func (c *Client) fetchMO(ctx context.Context, url string, k workload.ObjectID, parent *trace.Active) (n int64, retries int, fellBack bool, err error) {
	mo := parent.StartChild(trace.SpanMO)
	mo.SetAttr(trace.I(trace.AttrObject, int64(k)))
	fb, spec := c.opts.FallbackBase, bodySpec{verify: c.Verify, k: k}
	_, n, _, retries, err = c.getRetry(ctx, url, spec, mo)
	if err == nil {
		mo.SetAttr(trace.I(trace.AttrBytes, n))
		mo.End()
		return n, retries, false, nil
	}
	if fb == "" || hostOf(url) == fb {
		mo.SetAttr(trace.A(trace.AttrReason, failureReason(err)))
		mo.End()
		return 0, retries, false, err
	}
	reason := failureReason(err)
	c.countFallback(reason)
	fbSpan := mo.StartChild(trace.SpanFallback)
	fbSpan.SetAttr(trace.A(trace.AttrReason, reason))
	_, n, _, r2, err2 := c.getRetry(ctx, fb+htmlrefs.MOPath(spec.k), spec, fbSpan)
	fbSpan.End()
	retries += r2
	if err2 != nil {
		mo.End()
		// Report the original failure; the fallback error wraps context.
		return 0, retries, true, fmt.Errorf("%w (repository fallback also failed: %v)", err, err2)
	}
	mo.SetAttr(trace.I(trace.AttrBytes, n))
	mo.End()
	return n, retries, true, nil
}

// hostOf extracts scheme://host of a URL (everything before the path).
func hostOf(url string) string {
	idx := strings.Index(url, "://")
	if idx < 0 {
		return ""
	}
	rest := url[idx+3:]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return url
	}
	return url[:idx+3+slash]
}

// FetchPage downloads page j from pageURL: the HTML, then every embedded
// object grouped by host and fetched in per-host chains concurrently. With
// a FallbackBase configured the download survives local-server failures:
// objects re-route to the repository, and if even the HTML is unreachable
// the repository's master copy of the page (whose references all point at
// the repository) serves the view fully degraded.
func (c *Client) FetchPage(pageURL string, j workload.PageID) (*PageResult, error) {
	ctx := context.Background()
	start := time.Now()
	res := &PageResult{Page: j}

	root := c.tracer.StartTrace(trace.SpanPage)
	root.SetAttr(trace.I(trace.AttrPage, int64(j)), trace.A(trace.AttrSite, hostOf(pageURL)))
	defer root.End()

	html := root.StartChild(trace.SpanHTML)
	doc, _, hdr, retries, err := c.getRetry(ctx, pageURL, keepDoc, html)
	res.Retries += retries
	if err != nil {
		fb := c.opts.FallbackBase
		if fb == "" || hostOf(pageURL) == fb || !retryable(err) {
			html.SetAttr(trace.A(trace.AttrReason, failureReason(err)))
			html.End()
			return nil, err
		}
		fbSpan := html.StartChild(trace.SpanFallback)
		fbSpan.SetAttr(trace.A(trace.AttrReason, failureReason(err)))
		doc, _, hdr, retries, err = c.getRetry(ctx, fb+htmlrefs.PagePath(j), keepDoc, fbSpan)
		fbSpan.End()
		res.Retries += retries
		if err != nil {
			html.End()
			return nil, fmt.Errorf("page %d unreachable on site and repository: %w", j, err)
		}
		res.DegradedHTML = true
		root.SetAttr(trace.A(trace.AttrDegraded, "true"))
		c.cDegraded.Inc()
	}
	if hdr != nil {
		if tier, err := strconv.Atoi(hdr.Get(admission.BrownoutHeader)); err == nil {
			res.Brownout = tier
		}
	}
	res.HTMLBytes = int64(len(doc))
	html.SetAttr(trace.I(trace.AttrBytes, res.HTMLBytes))
	html.End()

	refs := htmlrefs.ParseRefs(doc)
	chains := map[string][]htmlrefs.Ref{}
	for _, r := range refs {
		if r.Optional {
			continue
		}
		url := string(doc[r.Start:r.End])
		chains[hostOf(url)] = append(chains[hostOf(url)], r)
	}

	pageHost := hostOf(pageURL)
	type chainOut struct {
		host      string
		res       ChainResult
		fbObjects int
		fbBytes   int64
		retries   int
		err       error
	}
	hosts := make([]string, 0, len(chains))
	for h := range chains {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)

	outs := make([]chainOut, len(hosts))
	var wg sync.WaitGroup
	for hi, host := range hosts {
		wg.Add(1)
		go func(hi int, host string) {
			defer wg.Done()
			cs := time.Now()
			out := chainOut{host: host}
			chainKind := "remote"
			if host == pageHost {
				chainKind = "local"
			}
			ch := root.StartChild(trace.SpanChain)
			ch.SetAttr(trace.A(trace.AttrChain, chainKind), trace.A(trace.AttrSite, host))
			defer ch.End()
			for _, r := range chains[host] {
				n, retries, fellBack, err := c.fetchMO(ctx, host+htmlrefs.MOPath(r.Object), r.Object, ch)
				out.retries += retries
				if err != nil {
					out.err = err
					outs[hi] = out
					return
				}
				if fellBack {
					out.fbObjects++
					out.fbBytes += n
				} else {
					out.res.Objects++
					out.res.Bytes += n
				}
			}
			out.res.Elapsed = time.Since(cs)
			outs[hi] = out
		}(hi, host)
	}
	wg.Wait()

	for _, o := range outs {
		res.Retries += o.retries
		res.Fallbacks += o.fbObjects
		if o.err != nil {
			return nil, o.err
		}
		// Fallback objects were served by the repository regardless of the
		// chain that requested them.
		res.RemoteChain.Objects += o.fbObjects
		res.RemoteChain.Bytes += o.fbBytes
		if o.host == pageHost {
			res.LocalChain = o.res
		} else {
			res.RemoteChain.Objects += o.res.Objects
			res.RemoteChain.Bytes += o.res.Bytes
			if o.res.Elapsed > res.RemoteChain.Elapsed {
				res.RemoteChain.Elapsed = o.res.Elapsed
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// GetDoc fetches a URL and returns the raw body — the served HTML as a
// browser would receive it.
func (c *Client) GetDoc(url string) ([]byte, error) {
	data, _, _, _, err := c.getRetry(context.Background(), url, keepDoc, nil)
	return data, err
}
