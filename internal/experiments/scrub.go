//repllint:allow determinism — the scrub soak is the one study that drives a live loopback cluster (real servers, probes, client); its report carries only counts that the injected faults fix, never a wall-clock reading

package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// Scrub scenario constants: each run starts a live cluster under a
// gray-failure cocktail — scrubRotCount replica-rot corruptions on the
// busiest site, a permanently limping second site, a control-partitioned
// third — then proves the integrity layer catches every injected corruption
// (at fetch time or within one scrub cycle) and the latency-aware
// supervisor flags both gray sites.
const (
	// scrubRotCount is the number of stored replicas rotted on the rot site
	// (capped by how many replicas the plan actually stores there).
	scrubRotCount = 6
)

// Gray-failure tuning: the limp must dwarf loopback RTT noise while keeping
// the soak fast. The threshold sits at half the limp: a healthy site's
// first probe (a fresh connection, which seeds its RTT EWMA) would have to
// be as slow as the limp itself to hold the EWMA over it for FailThreshold
// rounds, while the limp's EWMA stays about twice the threshold.
const (
	scrubLimpLatency      = 15 * time.Millisecond
	scrubLatencyThreshold = scrubLimpLatency / 2
)

// stream labels for the scrub study's derivations (disjoint from the
// runner's 101+ range and the flash-crowd study's 601+).
const (
	scrubRotStream uint64 = iota + 701
	scrubFaultStream
	scrubClientStream
)

// scrubStreams derives run r's streams: the rot sample, the fault plan and
// the client's jitter (TestStudyStreamsKnownAnswer pins them).
func scrubStreams(root *rng.Stream, r int) (rot, fault, client *rng.Stream) {
	return root.Split(scrubRotStream, uint64(r)),
		root.Split(scrubFaultStream, uint64(r)),
		root.Split(scrubClientStream, uint64(r))
}

// ScrubRun is one run's chaos-soak accounting. Every field is a pure
// function of the seed (counts over seeded sets and plan-derived replica
// walks), so two same-seed soaks render byte-identical reports.
type ScrubRun struct {
	Run int
	// RotSite hosts the injected replica rot, LimpSite the persistent
	// latency inflation, PartSite the control-plane partition.
	RotSite  workload.SiteID
	LimpSite workload.SiteID
	PartSite workload.SiteID
	// Injected is the number of rotted replicas.
	Injected int
	// FetchDetected counts client fetches that hit a rotted replica and
	// degraded to the repository with reason "corrupt" — the end-to-end
	// check catching corruption on the serving path.
	FetchDetected int
	// ScrubDetected is the corrupt-replica count the first scrub cycle
	// found; the anti-entropy bound is one full cycle, so this must equal
	// Injected.
	ScrubDetected int
	// RepairBytes is the delta-only anti-entropy traffic (the rotted
	// replicas' bytes, nothing else).
	RepairBytes units.ByteSize
	// Residual is the corrupt count the second scrub cycle found (must be
	// 0), and PostRepairCorrupt the corrupt fallbacks in a full fetch sweep
	// after repair (must be 0).
	Residual          int
	PostRepairCorrupt int
	// Undetected is Injected minus the scrubber's findings: the integrity
	// violations nothing caught. The acceptance bar is exactly 0.
	Undetected int
	// LimpDetected / PartDetected report the supervisor walked the limping
	// and partitioned sites to Down within repair.FailThreshold probe rounds.
	LimpDetected bool
	PartDetected bool
}

// ScrubResult is the study's output.
type ScrubResult struct {
	Runs []ScrubRun
}

// scrubConfig is the soak's tiny live-cluster workload: 3 sites and double-
// digit object counts keep each run's HTTP traffic in the hundreds of
// requests, with a single small MO class so replica fetches stay cheap.
func scrubConfig() workload.Config {
	c := workload.SmallConfig()
	c.Sites = 3
	c.PagesPerSiteMin = 6
	c.PagesPerSiteMax = 10
	c.GlobalObjects = 120
	c.ObjectsPerSite = 20
	c.ObjectsPerMax = 40
	c.CompulsoryMin = 2
	c.CompulsoryMax = 5
	c.OptionalMin = 2
	c.OptionalMax = 4
	c.MOClasses = []workload.SizeClass{{Frac: 1, Lo: 40 * units.KB, Hi: 80 * units.KB}}
	c.RequestsPerSite = 50
	return c
}

// Scrub runs the end-to-end integrity chaos soak. Each run: plan at half
// storage, start a live cluster with rot on the busiest site's replicas, a
// permanent limp window on the next site and a permanent control partition
// on the third; sweep every page with a verifying client (breaker off so
// degradations are a pure function of the rot set); run two
// scrub cycles (find-and-repair, then verify-clean); sweep again post-
// repair; and finally let the latency-aware supervisor demote both gray
// sites. The report proves the acceptance bar — zero undetected integrity
// violations, detection bounded by one scrub cycle — and contains only
// seed-derived counts, so same-seed soaks render byte-identical reports.
func Scrub(opts Options) (*ScrubResult, error) {
	opts.Workload = scrubConfig()
	runs := make([]ScrubRun, opts.Runs)
	err := forEachRun(&opts, func(env *runEnv) error {
		r := env.r
		rotStream, faultStream, clientStream := scrubStreams(rng.New(opts.Seed), r)
		penv, p, _, err := env.plan(env.w, storageOnly(env.w, 0.5), core.Options{})
		if err != nil {
			return err
		}

		n := env.w.NumSites()
		rotSite := busiestSite(env.w)
		limpSite := workload.SiteID((int(rotSite) + 1) % n)
		partSite := workload.SiteID((int(rotSite) + 2) % n)

		// Rot a seeded sample of the replicas the plan stores on the rot
		// site: every injected corruption is a stored replica, so the
		// scrubber's full walk is obligated to find each one.
		stored := p.StoredSet(rotSite).Members()
		rotCount := scrubRotCount
		if rotCount > len(stored) {
			rotCount = len(stored)
		}
		rot := make([]int, 0, rotCount)
		for _, idx := range rotStream.SampleWithoutReplacement(len(stored), rotCount) {
			rot = append(rot, stored[idx])
		}
		sort.Ints(rot)

		plan := &faults.Plan{
			Seed:  faultStream.Seed(),
			Sites: make([]faults.Spec, n),
		}
		forever := []faults.Window{{Start: 0, End: 24 * time.Hour}}
		plan.Sites[rotSite].Rot = rot
		plan.Sites[limpSite].LimpLatency = scrubLimpLatency
		plan.Sites[limpSite].Limps = forever
		plan.Sites[partSite].PartitionControl = forever

		cluster, err := webserve.StartClusterOptions(env.w, p, webserve.ClusterOptions{
			Metrics: true,
			Faults:  plan,
		})
		if err != nil {
			return err
		}
		defer cluster.Close()

		// Breaker off: with rot concentrated on one site a
		// tripped breaker would make later degradations depend on arrival
		// order, and the soak's counts must be a pure function of the seed.
		client := cluster.Client(webserve.ClientOptions{
			Retries:          1,
			BreakerThreshold: -1,
			JitterSeed:       clientStream.Seed(),
		})
		corruptFB := cluster.Metrics.Counter("client.fallbacks_by.corrupt")

		sweep := func() error {
			for j := range env.w.Pages {
				if _, err := client.FetchPage(cluster.PageURL(workload.PageID(j)), workload.PageID(j)); err != nil {
					return fmt.Errorf("scrub run %d: page %d: %w", r, j, err)
				}
			}
			return nil
		}

		run := ScrubRun{
			Run: r, RotSite: rotSite, LimpSite: limpSite, PartSite: partSite,
			Injected: len(rot),
		}

		// Phase 1: serving-path detection. Every fetch that lands on a
		// rotted replica must degrade to the repository with reason corrupt
		// — never hand garbage to the caller.
		if err := sweep(); err != nil {
			return err
		}
		run.FetchDetected = int(corruptFB.Value())

		// Phase 2: anti-entropy. Cycle 1 finds and repairs every rotted
		// replica; cycle 2 proves the store verifies clean.
		rec := controller.NewReconciler(penv, p, cluster, controller.ReconcilerOptions{
			Workers: opts.planWorkers(),
			Metrics: cluster.Metrics,
		})
		scrubber := rec.Scrubber(controller.ScrubOptions{})
		cycle1, err := scrubber.RunCycle()
		if err != nil {
			return err
		}
		run.ScrubDetected = len(cycle1.Corrupt)
		run.RepairBytes = cycle1.RepairBytes
		run.Undetected = run.Injected - run.ScrubDetected
		cycle2, err := scrubber.RunCycle()
		if err != nil {
			return err
		}
		run.Residual = len(cycle2.Corrupt)

		// Phase 3: post-repair sweep — the serving path is clean again.
		before := corruptFB.Value()
		if err := sweep(); err != nil {
			return err
		}
		run.PostRepairCorrupt = int(corruptFB.Value() - before)

		// Phase 4: gray-failure health. The limping site answers every
		// probe 200 but over the latency threshold (its first answer seeds
		// the EWMA there); the partitioned site is unreachable to the
		// supervisor while still serving clients. Each round is a miss for
		// both, so the probe law takes both to Down in FailThreshold rounds.
		sup := rec.Supervisor(controller.Options{LatencyThreshold: scrubLatencyThreshold})
		for round := 0; round < repair.FailThreshold; round++ {
			if err := sup.Probe(); err != nil {
				return err
			}
		}
		states := sup.States()
		run.LimpDetected = states[limpSite] == repair.Down
		run.PartDetected = states[partSite] == repair.Down

		runs[r] = run
		opts.progressf("scrub run %d: rot site %d (%d replicas) — fetch-detected %d, scrub-detected %d, repaired %s, residual %d, undetected %d, limp %v, partition %v",
			r, rotSite, run.Injected, run.FetchDetected, run.ScrubDetected,
			run.RepairBytes, run.Residual, run.Undetected, run.LimpDetected, run.PartDetected)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ScrubResult{Runs: runs}, nil
}

// Clean reports whether every run met the acceptance bar: zero undetected
// corruptions, zero residual after repair, and both gray failures flagged.
func (r *ScrubResult) Clean() bool {
	for _, run := range r.Runs {
		if run.Undetected != 0 || run.Residual != 0 || run.PostRepairCorrupt != 0 ||
			!run.LimpDetected || !run.PartDetected {
			return false
		}
	}
	return len(r.Runs) > 0
}

// Write renders the per-run table and the acceptance summary.
func (r *ScrubResult) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-4s %-4s %-4s %-4s %-9s %-10s %-10s %-10s %-9s %-7s %-11s %-6s %s\n",
		"run", "rot", "limp", "part", "injected", "fetch-det", "scrub-det", "repair", "residual", "postfix", "undetected", "limp?", "part?"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		if _, err := fmt.Fprintf(w, "%-4d %-4d %-4d %-4d %-9d %-10d %-10d %-10s %-9d %-7d %-11d %-6v %v\n",
			run.Run, run.RotSite, run.LimpSite, run.PartSite,
			run.Injected, run.FetchDetected, run.ScrubDetected, run.RepairBytes,
			run.Residual, run.PostRepairCorrupt, run.Undetected,
			run.LimpDetected, run.PartDetected); err != nil {
			return err
		}
	}
	verdict := "FAILED"
	if r.Clean() {
		verdict = "ok"
	}
	_, err := fmt.Fprintf(w, "integrity soak: %s — every injected corruption caught within one scrub cycle, both gray failures flagged\n", verdict)
	return err
}
