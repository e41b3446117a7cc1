// Package repro is the public API of the reproduction of Loukopoulos &
// Ahmad, "Replicating the Contents of a WWW Multimedia Repository to
// Minimize Download Time" (IPPS 2000).
//
// The library models a company with one central multimedia repository and s
// local web sites. Each page's multimedia objects are split between a local
// download chain and a repository download chain fetched in parallel; the
// planner (the paper's contribution) chooses the split and the replica set
// per site to minimize the weighted response-time objective under storage
// and processing-capacity constraints, and a simulator measures the
// resulting response times under realistic deviations from the planner's
// network estimates.
//
// Typical use:
//
//	w := repro.MustGenerateWorkload(repro.DefaultWorkloadConfig(), 42)
//	est, _ := repro.DrawEstimates(repro.DefaultNetConfig(), w.NumSites(), repro.NewStream(42))
//	env, _ := repro.NewEnv(w, est, repro.FullBudgets(w))
//	placement, result, _ := repro.Plan(env, repro.PlanOptions{})
//	sim, _ := repro.Simulate(w, est, repro.NewStaticPolicy("Proposed", placement),
//		repro.DefaultSimConfig(w), repro.NewStream(7))
//	fmt.Println(sim.CompositeMean())
//
// The experiment harness that regenerates every table and figure of the
// paper's evaluation, and the extension studies, is exposed as one table,
// Studies; see EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package repro

import (
	"flag"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/httpsim"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/policies"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// Core identifier and value types.
type (
	// ObjectID identifies a multimedia object M_k.
	ObjectID = workload.ObjectID
	// PageID identifies a web page W_j.
	PageID = workload.PageID
	// SiteID identifies a local server S_i.
	SiteID = workload.SiteID
	// ByteSize is a size in bytes.
	ByteSize = units.ByteSize
	// Rate is a transfer rate in bytes/second.
	Rate = units.Rate
	// Seconds is a duration in seconds.
	Seconds = units.Seconds
	// ReqPerSec is an HTTP request rate.
	ReqPerSec = units.ReqPerSec
)

// Byte-size constants.
const (
	Byte = units.Byte
	KB   = units.KB
	MB   = units.MB
	GB   = units.GB
)

// Workload types and generation.
type (
	// Workload is the generated environment: objects, pages, sites.
	Workload = workload.Workload
	// WorkloadConfig holds the Table-1 generator parameters.
	WorkloadConfig = workload.Config
	// WorkloadSummary is the generator audit (realized Table-1 values).
	WorkloadSummary = workload.Summary
)

// DefaultWorkloadConfig returns the paper's Table-1 parameters.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// SmallWorkloadConfig returns a reduced configuration for quick experiments.
func SmallWorkloadConfig() WorkloadConfig { return workload.SmallConfig() }

// GenerateWorkload builds a workload from a configuration and seed.
func GenerateWorkload(cfg WorkloadConfig, seed uint64) (*Workload, error) {
	return workload.Generate(cfg, seed)
}

// MustGenerateWorkload is GenerateWorkload panicking on error.
func MustGenerateWorkload(cfg WorkloadConfig, seed uint64) *Workload {
	return workload.MustGenerate(cfg, seed)
}

// SummarizeWorkload computes the Table-1 audit of a workload.
func SummarizeWorkload(w *Workload) *WorkloadSummary { return workload.Summarize(w) }

// WorkloadScale maps a command's -scale name to its workload configuration:
// paper (Table 1) or small.
func WorkloadScale(name string) (WorkloadConfig, error) {
	switch name {
	case "paper":
		return DefaultWorkloadConfig(), nil
	case "small":
		return SmallWorkloadConfig(), nil
	}
	return WorkloadConfig{}, fmt.Errorf("unknown scale %q (want paper or small)", name)
}

// LoadWorkload reads a workload from a JSON file.
func LoadWorkload(path string) (*Workload, error) { return workload.LoadFile(path) }

// Network estimates and perturbation.
type (
	// NetConfig holds the Table-1 network attribute ranges.
	NetConfig = netsim.Config
	// Estimates is the per-site set of estimated network attributes.
	Estimates = netsim.Estimates
	// PerturbConfig is the §5.1 estimate-vs-actual deviation model.
	PerturbConfig = netsim.PerturbConfig
	// Stream is a deterministic random stream.
	Stream = rng.Stream
)

// DefaultNetConfig returns the Table-1 network parameter ranges.
func DefaultNetConfig() NetConfig { return netsim.DefaultConfig() }

// DefaultPerturbConfig returns the §5.1 perturbation model.
func DefaultPerturbConfig() PerturbConfig { return netsim.DefaultPerturbConfig() }

// NoPerturbConfig returns the identity perturbation (actual == estimate).
func NoPerturbConfig() PerturbConfig { return netsim.NoPerturbConfig() }

// NewStream returns a deterministic random stream.
func NewStream(seed uint64) *Stream { return rng.New(seed) }

// DrawEstimates draws per-site network estimates.
func DrawEstimates(cfg NetConfig, numSites int, s *Stream) (*Estimates, error) {
	return netsim.DrawEstimates(cfg, numSites, s)
}

// Cost model.
type (
	// Env bundles workload, estimates, budgets and objective weights.
	Env = model.Env
	// Budgets holds the Eq. 8-10 constraint right-hand sides.
	Budgets = model.Budgets
	// Placement is an assignment of the X/X' matrices plus replica sets.
	Placement = model.Placement
	// ConstraintReport evaluates a placement against every constraint.
	ConstraintReport = model.Report
)

// NewEnv builds a planning environment.
func NewEnv(w *Workload, est *Estimates, b Budgets) (*Env, error) {
	return model.NewEnv(w, est, b)
}

// PlanningEnv builds the environment the commands plan in: the estimates
// drawn from seed, and the full budgets with the sites' storage (MO part)
// and processing capacity scaled by the given fractions.
func PlanningEnv(w *Workload, seed uint64, storage, capacity float64) (*Env, error) {
	est, err := DrawEstimates(DefaultNetConfig(), w.NumSites(), NewStream(seed))
	if err != nil {
		return nil, err
	}
	return NewEnv(w, est, FullBudgets(w).Scale(w, storage, capacity))
}

// FullBudgets returns 100 % storage, configured capacities, unconstrained
// repository.
func FullBudgets(w *Workload) Budgets { return model.FullBudgets(w) }

// InfiniteCapacity is the sentinel for an unconstrained processing capacity.
func InfiniteCapacity() ReqPerSec { return model.Infinite() }

// Evaluate produces a full cost/constraint report for a placement.
func Evaluate(e *Env, p *Placement) *ConstraintReport { return model.Evaluate(e, p) }

// AllLocal returns the placement downloading every object locally.
func AllLocal(w *Workload) *Placement { return model.AllLocal(w) }

// AllRemote returns the placement downloading every object remotely.
func AllRemote(w *Workload) *Placement { return model.AllRemote(w) }

// Planner (the paper's contribution).
type (
	// PlanOptions controls plan execution.
	PlanOptions = core.Options
	// PlanResult reports a planning run.
	PlanResult = core.Result
	// OffloadStats summarizes the off-loading negotiation.
	OffloadStats = core.OffloadStats
)

// Plan runs PARTITION, the constraint restorations and the off-loading
// negotiation, returning the placement and a report.
func Plan(env *Env, opts PlanOptions) (*Placement, *PlanResult, error) {
	return core.Plan(env, opts)
}

// Simulation.
type (
	// SimConfig controls a simulation run.
	SimConfig = httpsim.Config
	// SimResult aggregates simulated response times.
	SimResult = httpsim.Result
	// Policy serves each page view: it splits the page's compulsory bytes
	// between the local server and the repository in one call, and says
	// per requested optional link whether it is served locally.
	Policy = httpsim.Decider
	// OutageConfig arms the simulator's degraded mode: page views find
	// their local site down with probability 1-Availability and are served
	// entirely by the repository.
	OutageConfig = httpsim.OutageConfig
)

// DefaultSimConfig returns the paper's simulation parameters.
func DefaultSimConfig(w *Workload) SimConfig { return httpsim.DefaultConfig(w) }

// Simulate runs a policy over the workload's request streams.
func Simulate(w *Workload, est *Estimates, pol Policy, cfg SimConfig, s *Stream) (*SimResult, error) {
	return httpsim.Run(w, est, pol, cfg, s)
}

// Policies.
type (
	// StaticPolicy serves requests according to a fixed placement.
	StaticPolicy = policies.Static
	// LRUPolicy is the ideal LRU caching/redirection baseline.
	LRUPolicy = policies.LRU
)

// NewStaticPolicy wraps a placement as a simulation policy. The placement
// must be final: each page's compulsory split is summed from it here, once.
func NewStaticPolicy(name string, p *Placement) *StaticPolicy {
	return policies.NewStatic(name, p)
}

// NewRemotePolicy returns the "download all from the repository" baseline.
func NewRemotePolicy(w *Workload) *StaticPolicy { return policies.NewRemote(w) }

// NewLocalPolicy returns the "download all from the local servers" baseline.
func NewLocalPolicy(w *Workload) *StaticPolicy { return policies.NewLocal(w) }

// NewLRUPolicy returns the ideal LRU baseline for the given budgets.
func NewLRUPolicy(w *Workload, b Budgets, seed uint64) (*LRUPolicy, error) {
	return policies.NewLRU(w, b, seed)
}

// Experiments (the paper's evaluation).
type (
	// ExperimentOptions configures an experiment.
	ExperimentOptions = experiments.Options
	// Figure is a renderable set of experiment series.
	Figure = stats.Figure
	// EquivalenceResult reports the §5.2 storage-equivalence claim.
	EquivalenceResult = experiments.EquivalenceResult
)

// PaperExperiment returns the full Table-1 experiment configuration.
func PaperExperiment() ExperimentOptions { return experiments.Paper() }

// QuickExperiment returns a reduced experiment configuration.
func QuickExperiment() ExperimentOptions { return experiments.Quick() }

// StorageEquivalence measures the §5.2 "same response time with ~65 % of
// the storage" claim.
func StorageEquivalence(opts ExperimentOptions) (*EquivalenceResult, error) {
	return experiments.StorageEquivalence(opts)
}

// Study is one entry of the evaluation — a paper artifact or an extension
// study — with its command-line name, heading and Run function.
type Study = experiments.Study

// Studies is the single table of the paper's experiments (Table 1, Figures
// 1-3, the §5.2 claim) and the extension studies; replexp, the
// reproducibility test and the benchmarks all iterate it.
var Studies = experiments.Studies

// ExperimentFlags registers the -scale, -runs, -seed and -requests flags on
// fs and returns the function resolving them into options after parsing.
func ExperimentFlags(fs *flag.FlagSet) func() (ExperimentOptions, error) {
	return experiments.BindFlags(fs)
}

// Repair planning: deterministic re-replication plans for a down-set
// (internal/repair), the machinery behind the self-healing supervisor.
type (
	// RepairPlan is a computed repair: the re-planned environment and
	// placement over the survivors plus the delta from the healthy state.
	RepairPlan = repair.Plan
	// RepairDelta summarizes a repair: pages re-homed, replicas copied,
	// and the objective before/after.
	RepairDelta = repair.Delta
	// RepairOptions tunes the repair planner.
	RepairOptions = repair.Options
)

// ComputeRepair plans around the down sites: their pages are re-homed onto
// survivors and the compulsory/optional split re-run under the surviving
// budgets. Deterministic for a fixed (env, placement, down) at any worker
// count.
func ComputeRepair(env *Env, p *Placement, down []SiteID, opts RepairOptions) (*RepairPlan, error) {
	return repair.Compute(env, p, down, opts)
}

// ProgressWriter returns an ExperimentOptions.Progress sink writing one
// line per harness event to w, serialized across concurrent runs and
// prefixed with the seconds elapsed since the sink was made.
func ProgressWriter(w io.Writer) func(format string, args ...interface{}) {
	var mu sync.Mutex
	start := time.Now()
	return func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, "[%7.2fs] ", time.Since(start).Seconds())
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// NewThresholdPolicy returns the threshold-driven dynamic replication
// baseline.
func NewThresholdPolicy(w *Workload, b Budgets, replicateAt, decayEvery int64) (Policy, error) {
	return policies.NewThreshold(w, b, replicateAt, decayEvery)
}

// DriftWorkload returns a copy of the workload with a rotated hot set.
func DriftWorkload(w *Workload, swapFrac float64, seed uint64) (*Workload, error) {
	return workload.Drift(w, swapFrac, seed)
}

// Trace record/replay: a trace pins the traffic and the per-request network
// conditions so different policies (or policy versions) can be measured on
// identical inputs within one process.
type Trace = httpsim.Trace

// RecordTrace draws a request trace for the workload.
func RecordTrace(w *Workload, est *Estimates, cfg SimConfig, s *Stream) (*Trace, error) {
	return httpsim.Record(w, est, cfg, s)
}

// ReplayTrace measures a policy over a recorded trace, exactly as Simulate
// would on the seed it was recorded from; cfg's RequestsPerSite and Perturb
// were consumed by RecordTrace and are ignored.
func ReplayTrace(w *Workload, tr *Trace, pol Policy, cfg SimConfig) (*SimResult, error) {
	return httpsim.Replay(w, tr, pol, cfg)
}

// Tracing (internal/trace): deterministic span forests from the simulator
// (SimConfig.Trace), the live cluster and the planner (PlanOptions.Trace),
// the control-plane event journal, and the Eq. 5 critical-path analyzer
// behind cmd/repltrace.
type (
	// Span is one completed timed operation in a span tree: a request's, a
	// simulated page view's or a plan's.
	Span = trace.Span
	// ActiveSpan is a started, not-yet-ended span; pass one as
	// PlanOptions.Trace and each planner phase becomes a child of it. The
	// nil ActiveSpan is a valid no-op.
	ActiveSpan = trace.Active
	// SpanBuffer is a concurrency-safe span sink; arm one via
	// SimConfig.Trace (nil disables tracing for free).
	SpanBuffer = trace.Buffer
	// EventJournal is the bounded control-plane flight recorder.
	EventJournal = trace.Journal
	// JournalEvent is one structured flight-recorder entry.
	JournalEvent = trace.Event
	// JournalTypeCount is one event type's tally.
	JournalTypeCount = trace.NameCount
	// TraceAnalysis is the per-page Eq. 5 critical-path breakdown of a
	// recorded span forest.
	TraceAnalysis = trace.Analysis
)

// CountJournalEvents tallies journal events by type, descending by count.
func CountJournalEvents(events []JournalEvent) []JournalTypeCount {
	return trace.CountEventTypes(events)
}

// PlanLineage renders the journal's plan.applied events as
// "gen N ← P: cause (...)" lines, oldest first.
func PlanLineage(events []JournalEvent) []string { return trace.PlanLineage(events) }

// NewSpanBuffer returns a span sink holding at most capacity spans
// (0 = unbounded); once full it counts further spans as dropped.
func NewSpanBuffer(capacity int) *SpanBuffer { return trace.NewBuffer(capacity) }

// StartPlanSpan starts the root span of a traced plan into buf, its span IDs
// drawn from seed: pass it as PlanOptions.Trace, End it after Plan returns,
// and render buf.Spans() with WriteSpanTree.
func StartPlanSpan(buf *SpanBuffer, seed uint64) *ActiveSpan {
	return trace.NewTracer(buf, seed, trace.KindPlan).StartTrace(trace.SpanPlan)
}

// WriteSpanTree renders a span forest as indented text, one line per span.
func WriteSpanTree(w io.Writer, spans []Span) error { return trace.WriteTree(w, spans) }

// NewEventJournal returns a flight recorder holding the last capacity
// events of each type (0 = default).
func NewEventJournal(capacity int) *EventJournal { return trace.NewJournal(capacity) }

// PredictSpans records the placement's Eq. 5 time for every page as one
// "predict" span; append them to a traced run's forest and AnalyzeSpans
// sets each page's Predicted beside its observed time.
func PredictSpans(env *Env, p *Placement) []Span { return model.PredictSpans(env, p) }

// AnalyzeSpans reduces a span forest to its Eq. 5 critical paths.
func AnalyzeSpans(spans []Span) *TraceAnalysis { return trace.Analyze(spans) }

// LoadSpans reads a JSONL span file (from replsim -spans or replserve -trace).
func LoadSpans(path string) ([]Span, error) { return trace.LoadJSONL(path) }

// SaveSpans writes spans as JSONL, the repo's canonical trace form.
func SaveSpans(path string, spans []Span) error { return trace.SaveJSONL(path, spans) }

// SaveChromeTrace writes spans as Chrome trace-event JSON (Perfetto-loadable).
func SaveChromeTrace(path string, spans []Span) error { return trace.SaveChrome(path, spans) }

// LoadPlacement reads a placement for the workload from a JSON file.
func LoadPlacement(w *Workload, path string) (*Placement, error) {
	return model.LoadPlacementFile(w, path)
}

// PlacementDiff reports the migration between two placements.
type PlacementDiff = model.DiffReport

// DiffPlacements computes what applying placement b after placement a
// costs: replicas copied in, replicas deleted, reference marks flipped.
func DiffPlacements(a, b *Placement) (*PlacementDiff, error) {
	return model.Diff(a, b)
}

// ExplainPage writes the decision rationale for one page under a placement:
// chain times, the binding chain, and each compulsory object's side, size
// and single-flip ΔD — the operator's answer to "why is this object
// remote?".
func ExplainPage(env *Env, p *Placement, j PageID, w io.Writer) error {
	pl := core.NewPlanner(env)
	// Rebuild the planner's incremental state from the given placement.
	if err := pl.AdoptPlacement(p); err != nil {
		return err
	}
	return pl.Explain(j).Write(w)
}
