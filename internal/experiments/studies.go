package experiments

import (
	"io"

	"repro/internal/stats"
)

// Summary is a study's text report.
type Summary interface {
	Write(w io.Writer) error
}

// Study is one entry of the evaluation: a paper artifact or an extension.
type Study struct {
	// Name selects the study on the command line (replexp -exp Name) and
	// names its CSV (Name.csv under -csv DIR and under results/).
	Name string
	// Func is the exported function that computes it; sub-tests and
	// sub-benchmarks run under this name.
	Func string
	// Heading titles the text summary. Studies that are a figure and nothing
	// else leave it empty: the figure carries its own title.
	Heading string
	// Paper marks the paper's own artifacts, the ones "-exp all" covers
	// without -extensions.
	Paper bool
	// Run computes the study: a text summary, a figure, or both.
	Run func(Options) (Summary, *stats.Figure, error)
}

// Studies is the single list of the paper's experiments and the extension
// studies, in reporting order. replexp's dispatch and report sections, the
// reproducibility test, the per-study benchmarks and results/ all range over
// it, so a new study is one new entry here.
var Studies = []Study{
	{"table1", "Table1", "Table 1: workload audit", true, text(Table1)},
	{"fig1", "Figure1", "", true, figure(Figure1)},
	{"fig2", "Figure2", "", true, figure(Figure2)},
	{"fig3", "Figure3", "", true, figure(Figure3)},
	{"equiv", "StorageEquivalence", "Storage equivalence (§5.2)", true, text(StorageEquivalence)},
	{"ablation", "Ablations", "Ablations: design choices vs naive splits", false, text(Ablations)},
	{"drift", "Drift", "", false, figure(Drift)},
	{"redirect", "RedirectStudy", "", false, figure(RedirectStudy)},
	{"sensitivity", "Sensitivity", "", false, figure(Sensitivity)},
	{"threshold", "ThresholdStudy", "", false, figure(ThresholdStudy)},
	{"queueing", "QueueingStudy", "", false, figure(QueueingStudy)},
	{"period", "PeriodStudy", "", false, figure(PeriodStudy)},
	{"weights", "WeightsStudy", "", false, figure(WeightsStudy)},
	{"degraded", "DegradedMode", "", false, figure(DegradedMode)},
	{"critpath", "CriticalPath", "Critical path: observed (traced sim) vs predicted D", false, text(CriticalPath)},
	{"recovery", "Recovery", "Recovery: self-healing under a scripted site outage", false,
		timeline(Recovery, func(r *RecoveryResult) *stats.Figure { return r.Timeline })},
	{"flashcrowd", "FlashCrowd", "Flash crowd: online re-planning from live traffic", false,
		timeline(FlashCrowd, func(r *FlashCrowdResult) *stats.Figure { return r.Timeline })},
	{"scrub", "Scrub", "Scrub: end-to-end integrity under gray failure", false, text(Scrub)},
	{"overload", "Overload", "Overload: metastable failure and the admission stack", false,
		timeline(Overload, func(r *OverloadResult) *stats.Figure { return r.Timeline })},
}

// figure adapts a study that is a figure and nothing else.
func figure(study func(Options) (*stats.Figure, error)) func(Options) (Summary, *stats.Figure, error) {
	return func(o Options) (Summary, *stats.Figure, error) {
		fig, err := study(o)
		return nil, fig, err
	}
}

// text adapts a study whose result renders as text only.
func text[R Summary](study func(Options) (R, error)) func(Options) (Summary, *stats.Figure, error) {
	return timeline(study, func(R) *stats.Figure { return nil })
}

// timeline adapts a study whose result renders as text and also carries a
// figure.
func timeline[R Summary](study func(Options) (R, error), fig func(R) *stats.Figure) func(Options) (Summary, *stats.Figure, error) {
	return func(o Options) (Summary, *stats.Figure, error) {
		res, err := study(o)
		if err != nil {
			return nil, nil, err
		}
		return res, fig(res), nil
	}
}
