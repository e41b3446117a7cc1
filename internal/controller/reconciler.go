package controller

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/estimate"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// ReconcilerOptions is the observability and concurrency wiring every
// signal source hung off the reconciler shares.
type ReconcilerOptions struct {
	// Workers bounds the repair planner's concurrency (0 = GOMAXPROCS);
	// plans are identical at any width.
	Workers int
	// Metrics receives the controller.*, adapt.* and scrub.* counters — the
	// sources' only tallies — and the controller.sites_down gauge. Nil means
	// a private registry; pass the cluster's to export them at /metrics.
	Metrics *telemetry.Registry
	// Log, when non-nil, receives one line per commit, transition and
	// finding. On a failed commit the journal is additionally dumped to it,
	// so the recorder's tail survives the failure it explains.
	Log io.Writer
	// Journal, when non-nil, is the control-plane flight recorder: every
	// commit ("plan.applied" with gen, parent, cause) and every signal that
	// led to it. Share one journal with webserve.ClusterOptions to expose it
	// at /debug/journal.
	Journal *trace.Journal
}

// Reconciler is the only holder of desired state — the base (environment,
// placement) pair, the down set, and the effective plan derived from them:
// the base when nothing is down, repair.Compute(base, down) otherwise — and
// the only caller of Cluster.ApplyPlan. The supervisor, adapter and
// scrubber are signal sources: they submit intents (SetDown, SetBase,
// Reship) and every intent is re-derived against the other two's latest
// state inside one serialized commit, so a repair builds on the adapted
// base, a recovery returns to it, and an adaptation during an outage keeps
// the re-homing. State changes only when a commit succeeds: it always
// describes the generation the cluster serves.
type Reconciler struct {
	cluster *webserve.Cluster
	opts    ReconcilerOptions
	gDown   *telemetry.Gauge

	mu     sync.Mutex
	env    *model.Env
	base   *model.Placement
	repair *repair.Plan // base re-derived around the down set; nil when nothing is down
	gen    uint64
}

// NewReconciler takes ownership of a running cluster's plan. env and p are
// the environment and placement the cluster was started with: generation 0.
func NewReconciler(env *model.Env, p *model.Placement, cluster *webserve.Cluster, opts ReconcilerOptions) *Reconciler {
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewRegistry()
	}
	return &Reconciler{cluster: cluster, opts: opts, env: env, base: p, gDown: opts.Metrics.Gauge("controller.sites_down")}
}

// Base returns the environment and placement every repair derives from and
// every recovery returns to: the startup pair until an adaptation lands.
func (r *Reconciler) Base() (*model.Env, *model.Placement) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.env, r.base
}

// Repair returns the active repair plan, nil while nothing is down.
func (r *Reconciler) Repair() *repair.Plan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.repair
}

// SetDown declares the complete down set (empty = every site is back).
func (r *Reconciler) SetDown(down []workload.SiteID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cause := "repair"
	if len(down) == 0 {
		cause = "recovery"
	}
	return r.derive(r.env, r.base, down, cause)
}

// SetBase replaces the base plan with a re-planned one; attrs describe the
// change on the plan.applied event.
func (r *Reconciler) SetBase(env *model.Env, p *model.Placement, attrs ...trace.Attr) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.derive(env, p, downOf(r.repair), "adapt", attrs...)
}

// Reship pushes the current effective plan again so that the sites rewrite
// the replicas in findings, and returns the findings it acted on with their
// total size. A finding for a replica the plan no longer stores — a repair
// or an adaptation landed while the scrub cycle that produced it was
// walking — is dropped: shipping the cycle's own snapshot would revert it.
func (r *Reconciler) Reship(findings []Finding) ([]Finding, units.ByteSize, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, p := effective(r.env, r.base, r.repair)
	var kept []Finding
	var bytes units.ByteSize
	for _, f := range findings {
		if p.IsStored(f.Site, f.Object) {
			kept = append(kept, f)
			bytes += w.ObjectSize(f.Object)
		}
	}
	if len(kept) == 0 {
		return nil, 0, nil
	}
	return kept, bytes, r.commit(r.env, r.base, r.repair, "scrub", trace.I("copy_bytes", int64(bytes)))
}

// effective is the plan a (base, repair) pair serves: the repair when a
// site is down, the base otherwise.
func effective(env *model.Env, base *model.Placement, rp *repair.Plan) (*workload.Workload, *model.Placement) {
	if rp != nil {
		return rp.Env.W, rp.Placement
	}
	return env.W, base
}

// downOf is the down set a repair plan was built around (none without one).
func downOf(rp *repair.Plan) []workload.SiteID {
	if rp == nil {
		return nil
	}
	return rp.Down
}

// derive re-derives the repair of (env, base) around down and commits the
// result (mu held).
func (r *Reconciler) derive(env *model.Env, base *model.Placement, down []workload.SiteID, cause string, attrs ...trace.Attr) error {
	var rp *repair.Plan
	if len(down) > 0 {
		var err error
		if rp, err = repair.Compute(env, base, down, repair.Options{Workers: r.opts.Workers, Journal: r.opts.Journal}); err != nil {
			return r.reject(cause, err)
		}
		attrs = append(attrs, trace.I("rehomed", int64(len(rp.Delta.Rehomed))))
	}
	return r.commit(env, base, rp, cause, attrs...)
}

// commit is the single point where a plan reaches the cluster (mu held):
// apply the effective plan, and only then adopt (env, base, rp) as the new
// state and journal its lineage.
func (r *Reconciler) commit(env *model.Env, base *model.Placement, rp *repair.Plan, cause string, attrs ...trace.Attr) error {
	if err := r.cluster.ApplyPlan(effective(env, base, rp)); err != nil {
		return r.reject(cause, err)
	}
	r.env, r.base, r.repair = env, base, rp
	r.gen++
	down := len(downOf(rp))
	r.gDown.Set(float64(down))
	r.opts.Journal.Record("plan.applied", append([]trace.Attr{
		trace.I("gen", int64(r.gen)),
		trace.I("parent", int64(r.gen-1)),
		trace.A("cause", cause),
		trace.I("sites_down", int64(down)),
	}, attrs...)...)
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, "reconciler: gen %d ← %d: %s, %d sites down\n", r.gen, r.gen-1, cause, down)
	}
	return nil
}

// reject reports a failed commit and dumps the journal's tail to Log — the
// flight recorder's whole point is explaining this moment.
func (r *Reconciler) reject(cause string, err error) error {
	err = fmt.Errorf("controller: %s commit after gen %d: %w", cause, r.gen, err)
	if r.opts.Journal != nil && r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, "reconciler: %v; journal dump (%d events recorded, %d dropped):\n",
			err, r.opts.Journal.Total(), r.opts.Journal.Dropped())
		_ = r.opts.Journal.WriteText(r.opts.Log)
	}
	return err
}

// The loops' periods. Each source steps synchronously through its own
// public step (Supervisor.Probe, Adapter.CheckNow, Scrubber.RunCycle);
// Start only calls that step once per period.
const (
	probePeriod = 250 * time.Millisecond // also bounds one probe request
	adaptPeriod = 5 * time.Second
	scrubPeriod = 2 * time.Second
)

// source is what every signal source embeds: the reconciler it submits to,
// prefixed logging, the last loop error, and the one loop, whose period
// and step the constructor fixes.
type source struct {
	rec    *Reconciler
	name   string // log prefix and the controller.error event's source
	period time.Duration
	step   func() error

	errMu   sync.Mutex
	lastErr error
	stop    chan struct{}
	done    chan struct{}
}

// Start launches the loop: one step per period until Stop; a step's error
// is recorded (visible via Err) without ending the loop.
func (s *source) Start() {
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(s.period)
		defer ticker.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ticker.C:
				if err := s.step(); err != nil {
					s.fail(err)
				}
			}
		}
	}()
}

// Stop ends the loop and waits for it to exit.
func (s *source) Stop() {
	close(s.stop)
	<-s.done
}

func (s *source) fail(err error) {
	s.errMu.Lock()
	s.lastErr = err
	s.errMu.Unlock()
	s.rec.opts.Journal.Record("controller.error", trace.A("source", s.name), trace.A(trace.AttrReason, err.Error()))
	s.logf("%v", err)
}

// Err returns the last error a step returned inside the loop, nil if none.
func (s *source) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.lastErr
}

func (s *source) logf(format string, args ...interface{}) {
	if s.rec.opts.Log != nil {
		fmt.Fprintf(s.rec.opts.Log, s.name+": "+format+"\n", args...)
	}
}

// NewAdapter is the convenience for a cluster only the adapter controls: a
// private reconciler with one signal source.
func NewAdapter(env *model.Env, p *model.Placement, cluster *webserve.Cluster, est *estimate.Estimator, opts AdaptOptions) (*Adapter, error) {
	return NewReconciler(env, p, cluster, ReconcilerOptions{Workers: opts.Workers}).Adapter(est, opts)
}

// NewScrubber is the convenience for a cluster only the scrubber repairs: a
// private reconciler over the plan the cluster serves now.
func NewScrubber(env *model.Env, cluster *webserve.Cluster, opts ScrubOptions) *Scrubber {
	_, p := cluster.CurrentPlan()
	return NewReconciler(env, p, cluster, ReconcilerOptions{}).Scrubber(opts)
}
