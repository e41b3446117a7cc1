package experiments

import (
	"fmt"
	"io"

	"repro/internal/policies"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Table1 generates one full workload per the options and returns its audit
// summary — the reproduction of the paper's Table 1 (and the §5.2 "1.8 GB
// average" storage claim).
func Table1(opts Options) (*workload.Summary, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	wSeed := rng.New(opts.Seed).Split(runWorkloadStream, table1Run).Seed()
	w, err := workload.Generate(opts.Workload, wSeed)
	if err != nil {
		return nil, err
	}
	return workload.Summarize(w), nil
}

// EquivalenceResult reports the §5.2 storage-equivalence claim: the
// smallest storage fraction at which the proposed policy matches the
// response time of ideal LRU (and Local) at 100 % storage. The paper finds
// ≈65 %.
type EquivalenceResult struct {
	// Fraction is the smallest sweep fraction whose proposed-policy
	// response time is at or below the LRU-at-100 % level.
	Fraction float64
	// ProposedAt holds the proposed policy's mean relative increase (%) per
	// storage fraction; LRUFull and LocalLevel are the reference levels.
	ProposedAt map[float64]float64
	LRUFull    float64
	LocalLevel float64
}

// StorageEquivalence measures the claim over the options' runs.
func StorageEquivalence(opts Options) (*EquivalenceResult, error) {
	col := newCollector(opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		lruPol, err := policies.NewLRU(env.w, storageOnly(env.w, 1), env.simSeed+uint64(env.r))
		if err != nil {
			return err
		}
		lruRT, err := env.simulate(env.w, lruPol, env.warmCfg)
		if err != nil {
			return err
		}
		col.add(env.r, "LRU@100", 100, env.rel(lruRT))

		localRT, err := env.simulate(env.w, policies.NewLocal(env.w), env.simCfg)
		if err != nil {
			return err
		}
		col.add(env.r, "Local", 100, env.rel(localRT))

		// From the loosest storage down, folded in grid order.
		rts := make([]float64, len(storageGrid))
		for n := len(storageGrid) - 1; n >= 0; n-- {
			var err error
			if rts[n], _, err = env.simulatePlanned(storageOnly(env.w, storageGrid[n]), env.simCfg); err != nil {
				return err
			}
		}
		for n, frac := range storageGrid {
			col.add(env.r, "Proposed", frac*100, env.rel(rts[n]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	data, _ := col.fold()
	res := &EquivalenceResult{Fraction: 1, ProposedAt: make(map[float64]float64)}
	res.LRUFull = data["LRU@100"][100].Mean()
	res.LocalLevel = data["Local"][100].Mean()
	for _, frac := range storageGrid {
		res.ProposedAt[frac] = data["Proposed"][frac*100].Mean()
	}
	for _, frac := range storageGrid {
		if res.ProposedAt[frac] <= res.LRUFull {
			res.Fraction = frac
			break
		}
	}
	return res, nil
}

// Write renders the equivalence result.
func (r *EquivalenceResult) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "LRU @ 100%% storage: +%.1f%%  |  Local: +%.1f%%\n", r.LRUFull, r.LocalLevel); err != nil {
		return err
	}
	for _, frac := range storageGrid {
		marker := ""
		if frac == r.Fraction { //repllint:allow float-compare — storageGrid values are copied verbatim; exact match intended
			marker = "  <-- matches LRU@100%"
		}
		if _, err := fmt.Fprintf(w, "proposed @ %3.0f%% storage: %+.1f%%%s\n", frac*100, r.ProposedAt[frac], marker); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "equivalence fraction: %.0f%% (paper: ≈65%%)\n", r.Fraction*100)
	return err
}
