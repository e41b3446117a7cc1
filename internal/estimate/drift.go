package estimate

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/repair"
)

// DetectorConfig tunes the drift detector. A zero value takes the default
// noted on it.
type DetectorConfig struct {
	// TriggerTopK is the fraction of the current top-K absent from the
	// baseline top-K at or above which re-planning triggers even when the
	// bulk L1 mass hasn't moved — the "breaking news" signature where a
	// handful of pages swap into the hot set. Default 0.5.
	TriggerTopK float64
}

// The detector's fixed thresholds.
const (
	// triggerL1 is the L1 distance between the estimated and baseline
	// frequency vectors (both normalized, so the distance lives in [0, 2])
	// at or above which re-planning triggers.
	triggerL1 = 0.35
	// clearL1 is the hysteresis floor: after a trigger the detector stays
	// quiet until the distance drops below clearL1 (i.e. the plan has been
	// rebuilt, or the burst faded on its own) and only then re-arms.
	clearL1 = triggerL1 / 2
	// topK is how many top pages the churn signal compares, clamped to the
	// vector length.
	topK = 10
)

func (c DetectorConfig) normalize() DetectorConfig {
	if c.TriggerTopK <= 0 {
		c.TriggerTopK = 0.5
	}
	return c
}

// Decision is one drift check's outcome.
type Decision struct {
	// L1 is the distance between the current and baseline vectors.
	L1 float64
	// TopKChurn is the fraction of the current top-K pages that are not in
	// the baseline top-K.
	TopKChurn float64
	// Exceeded reports whether either signal is past its trigger level.
	Exceeded bool
	// Trigger reports whether this check should start a re-plan: Exceeded
	// while the detector is armed. Hysteresis clears it on the checks that
	// follow a trigger until the distance falls below clearL1 or the
	// caller Rebases onto a new plan.
	Trigger bool
}

// Detector compares the estimator's frequency vector against the vector
// the current plan was built from and decides when the divergence is worth
// a re-plan. Hysteresis keeps one sustained burst from triggering a
// re-plan storm: after a trigger the detector disarms until the signal
// clears or the baseline is rebased. Not safe for concurrent use; the
// adapt controller serializes checks.
type Detector struct {
	cfg      DetectorConfig
	baseline []float64
	baseTop  map[int]bool
	armed    bool
}

// NewDetector builds a detector armed against the given baseline vector
// (normally estimate.BaselineVector of the workload the plan came from).
func NewDetector(baseline []float64, cfg DetectorConfig) (*Detector, error) {
	if len(baseline) == 0 {
		return nil, fmt.Errorf("estimate: empty detector baseline")
	}
	d := &Detector{cfg: cfg.normalize(), armed: true}
	d.Rebase(baseline)
	return d, nil
}

// Rebase replaces the baseline (after a re-plan has shipped) and re-arms.
func (d *Detector) Rebase(baseline []float64) {
	d.baseline = append([]float64(nil), baseline...)
	d.baseTop = topSet(baseline, topK)
	d.armed = true
}

// Check measures current against the baseline. The vectors must have the
// same length and the same normalization (FreqVector/BaselineVector).
func (d *Detector) Check(current []float64) (Decision, error) {
	if len(current) != len(d.baseline) {
		return Decision{}, fmt.Errorf("estimate: detector got %d-page vector, baseline has %d", len(current), len(d.baseline))
	}
	var dec Decision
	for i, c := range current {
		diff := c - d.baseline[i]
		if diff < 0 {
			diff = -diff
		}
		dec.L1 += diff
	}
	curTop := topIndices(current, topK)
	if len(curTop) > 0 {
		moved := 0
		for _, idx := range curTop {
			if !d.baseTop[idx] {
				moved++
			}
		}
		dec.TopKChurn = float64(moved) / float64(len(curTop))
	}
	dec.Exceeded = dec.L1 >= triggerL1 || dec.TopKChurn >= d.cfg.TriggerTopK
	dec.Trigger = dec.Exceeded && d.armed
	if dec.Trigger {
		d.armed = false
	} else if !d.armed && dec.L1 < clearL1 && dec.TopKChurn < d.cfg.TriggerTopK {
		d.armed = true
	}
	return dec, nil
}

// Armed reports whether the next exceeded check would trigger.
func (d *Detector) Armed() bool { return d.armed }

// Proposal is one drift-gated re-plan step's outcome. Everything past
// Decision is set only when the decision triggered.
type Proposal struct {
	// Decision is the detector's verdict on the snapshot.
	Decision Decision
	// Env is the environment re-estimated from the snapshot, Plan the
	// planner's placement for it.
	Env  *model.Env
	Plan *model.Placement
	// Delta is what replacing the base placement with Plan ships and what
	// it buys; Changed reports whether Plan differs from the base at all
	// (an unchanged placement must ship nothing).
	Delta   repair.Delta
	Changed bool
}

// Replan is §4.1's re-execution step, shared by the live adapter and the
// flash-crowd study: check the snapshot against the baseline and, on a
// trigger, re-estimate the workload from it, plan the result under env's
// estimates, budgets and α weights (workers bounds the planner's width;
// plans are identical at any width), and measure the change against base,
// the placement env was serving. Adopting the proposal — and rebasing the
// detector onto BaselineVector(p.Env.W) — is the caller's decision. When
// the re-plan fails after a trigger, the proposal still carries the
// decision alongside the error.
func (d *Detector) Replan(env *model.Env, base *model.Placement, snap *Snapshot, workers int) (*Proposal, error) {
	dec, err := d.Check(snap.FreqVector(env.W.NumPages()))
	if err != nil {
		return nil, err
	}
	p := &Proposal{Decision: dec}
	if !dec.Trigger {
		return p, nil
	}
	w2, err := snap.EstimateWorkload(env.W)
	if err != nil {
		return p, fmt.Errorf("estimate: re-estimate: %w", err)
	}
	env2, err := model.NewEnv(w2, env.Est, env.Budgets)
	if err != nil {
		return p, fmt.Errorf("estimate: re-estimated env: %w", err)
	}
	env2.Alpha1, env2.Alpha2 = env.Alpha1, env.Alpha2
	fresh, _, err := core.Plan(env2, core.Options{Workers: workers})
	if err != nil {
		return p, fmt.Errorf("estimate: re-plan: %w", err)
	}
	p.Env, p.Plan = env2, fresh
	p.Delta = repair.ChangeDelta(env, env2, base, fresh)
	p.Changed = !base.Equal(fresh)
	return p, nil
}

// topIndices returns the indices of the k largest entries of v (ties by
// lower index), at most len(v) of them, skipping zero entries.
func topIndices(v []float64, k int) []int {
	idx := make([]int, 0, len(v))
	for i, x := range v {
		if x > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		xa, xb := v[idx[a]], v[idx[b]]
		if xa != xb { //repllint:allow float-compare — exact-bits tie-break keeps the comparator a strict weak order
			return xa > xb
		}
		return idx[a] < idx[b]
	})
	if k < len(idx) {
		idx = idx[:k]
	}
	return idx
}

// topSet is the baseline's top-k as a membership set, widened to every
// page tied with the k-th: which of a tied group topIndices keeps is an
// accident of index order, so a noisy estimate's top-k drawn from the group
// has not churned.
func topSet(v []float64, k int) map[int]bool {
	top := topIndices(v, k)
	out := make(map[int]bool, len(top))
	for _, i := range top {
		out[i] = true
	}
	if len(top) == 0 {
		return out
	}
	kth := v[top[len(top)-1]]
	for i, x := range v {
		if x == kth { //repllint:allow float-compare — a tie is exact equality of the baseline's own entries
			out[i] = true
		}
	}
	return out
}
