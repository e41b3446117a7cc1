package controller

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/htmlrefs"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/webserve"
	"repro/internal/workload"
)

// ScrubOptions is empty: the scrubber has no tuning left. The parameter
// stays until the benchmark module, which passes one, drops it too.
type ScrubOptions struct{}

// scrubTimeout bounds each verification fetch.
const scrubTimeout = 5 * time.Second

// Finding is one corrupt replica the scrubber caught: site i's stored copy
// of object k failed end-to-end verification.
type Finding struct {
	Site   workload.SiteID
	Object workload.ObjectID
	Reason string
}

// ScrubCycle is one full scrub pass's outcome.
type ScrubCycle struct {
	// Checked counts replicas fetched and verified (down sites are skipped).
	Checked int
	// Clean counts replicas that verified.
	Clean int
	// Corrupt lists the replicas that failed verification.
	Corrupt []Finding
	// Errors counts fetch failures (site unreachable mid-scrub, timeouts) —
	// availability problems for the supervisor, not integrity findings.
	Errors int
	// Repaired reports that the corrupt replicas were re-shipped and none
	// failed re-verification this cycle (a re-verify whose fetch failed
	// counts in Errors instead).
	Repaired bool
	// RepairBytes is the anti-entropy traffic, re-verified or not: only the
	// corrupt replicas' bytes, never a full re-copy.
	RepairBytes units.ByteSize
}

// Scrubber is the integrity signal source, the anti-entropy loop: it walks
// the live placement replica by replica, re-fetches each stored object from
// its site, and verifies the self-describing payload end to end — the only
// check that catches replica rot and wire corruption, which are invisible
// to availability probes (the transfer succeeds; the bytes are wrong). The
// findings go to the reconciler, which re-ships its current plan so the
// sites rewrite them (RepairBytes counts exactly the rewritten replicas),
// and the scrubber re-verifies. The paper assumes replicas, once placed,
// stay byte-identical to the repository master; this loop enforces that
// assumption instead of trusting it.
//
// RunCycle is one synchronous pass (replserve -scrub without -serve);
// Start runs one every 2 s (scrubPeriod). A cycle walks whatever
// Cluster.CurrentPlan says is live when it starts; a repair or adaptation
// that lands mid-walk is never reverted (Reconciler.Reship) and is walked
// on the next cycle.
type Scrubber struct {
	source
	http *http.Client

	mu sync.Mutex // serializes RunCycle

	cCycles, cObjects, cClean, cCorrupt *telemetry.Counter
	cErrors, cRepairs, cRepairBytes     *telemetry.Counter
}

// Scrubber builds the integrity loop over the reconciler's cluster.
func (r *Reconciler) Scrubber(ScrubOptions) *Scrubber {
	reg := r.opts.Metrics
	s := &Scrubber{
		source: source{rec: r, name: "scrub", period: scrubPeriod},
		http:   &http.Client{Timeout: scrubTimeout},

		cCycles:      reg.Counter("scrub.cycles"),
		cObjects:     reg.Counter("scrub.objects"),
		cClean:       reg.Counter("scrub.clean"),
		cCorrupt:     reg.Counter("scrub.corrupt"),
		cErrors:      reg.Counter("scrub.errors"),
		cRepairs:     reg.Counter("scrub.repairs"),
		cRepairBytes: reg.Counter("scrub.repair_bytes"),
	}
	s.step = func() error {
		_, err := s.RunCycle()
		return err
	}
	return s
}

// verify fetches site i's replica of object k from base and checks it as it
// streams in, never holding it whole. A *webserve.IntegrityError is a
// finding; any other error is the fetch's.
func (s *Scrubber) verify(w *workload.Workload, i int, base string, k workload.ObjectID) error {
	resp, err := s.http.Get(base + htmlrefs.MOPath(k))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = webserve.VerifyObjectStream(w, i, k, resp.Body)
	} else {
		err = fmt.Errorf("scrub: GET %s%s: %s", base, htmlrefs.MOPath(k), resp.Status)
	}
	if err != nil {
		// Drain what was not read, so the connection is reusable.
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return err
}

// RunCycle walks the live placement once: every replica the plan claims a
// live site stores is fetched and verified against the workload's payload
// contract (including provenance — a header claiming another source is a
// finding too). Corrupt replicas are handed to the reconciler to re-ship,
// cleared in the fault injectors, and re-verified. Serialized internally;
// safe to call concurrently with the loop.
//
// The live sites are walked at once, one walker each; a walker fetches its
// site's replicas one at a time in ascending object order, so every site
// sees the request sequence of a sequential walk. The walks are merged in
// site order, so the findings, their journal records and the counter
// totals are those of the sequential walk too.
func (s *Scrubber) RunCycle() (*ScrubCycle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cluster, journal := s.rec.cluster, s.rec.opts.Journal

	w, p := cluster.CurrentPlan()
	out := &ScrubCycle{}
	s.cCycles.Inc()
	walks := make([]ScrubCycle, w.NumSites())
	var wg sync.WaitGroup
	for i := range walks {
		if cluster.SiteDown(i) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			walks[i] = s.walkSite(w, p, i, cluster.SiteBases[i])
		}()
	}
	wg.Wait()
	for _, walk := range walks {
		out.Checked += walk.Checked
		out.Clean += walk.Clean
		out.Errors += walk.Errors
		s.cObjects.Add(int64(walk.Checked))
		s.cClean.Add(int64(walk.Clean))
		s.cErrors.Add(int64(walk.Errors))
		for _, f := range walk.Corrupt {
			out.Corrupt = append(out.Corrupt, f)
			s.cCorrupt.Inc()
			journal.Record("scrub.corrupt",
				trace.I(trace.AttrSite, int64(f.Site)),
				trace.I(trace.AttrObject, int64(f.Object)),
				trace.A(trace.AttrReason, f.Reason))
			s.logf("corrupt replica: site %d object %d: %s", f.Site, f.Object, f.Reason)
		}
	}

	if len(out.Corrupt) > 0 {
		if err := s.repairFindings(w, out); err != nil {
			return out, err
		}
	}
	journal.Record("scrub.cycle",
		trace.I("checked", int64(out.Checked)),
		trace.I("corrupt", int64(len(out.Corrupt))),
		trace.I("errors", int64(out.Errors)))
	return out, nil
}

// walkSite fetches and verifies every replica p stores at site i, one at a
// time in ascending object order, and tallies them: Checked, Clean, Errors
// and the Corrupt findings in object order.
func (s *Scrubber) walkSite(w *workload.Workload, p *model.Placement, i int, base string) ScrubCycle {
	var walk ScrubCycle
	p.StoredSet(workload.SiteID(i)).ForEach(func(ki int) bool {
		k := workload.ObjectID(ki)
		walk.Checked++
		err := s.verify(w, i, base, k)
		var verr *webserve.IntegrityError
		switch {
		case errors.As(err, &verr):
			walk.Corrupt = append(walk.Corrupt, Finding{Site: workload.SiteID(i), Object: k, Reason: verr.Error()})
		case err != nil:
			walk.Errors++
		default:
			walk.Clean++
		}
		return true
	})
	return walk
}

// repairFindings is the anti-entropy step: the reconciler re-ships the
// replicas its plan still stores, and each one is re-verified. A replica
// that still reads corrupt (a wire flip on the re-read, or a rewrite that
// did not take) leaves the cycle unrepaired, not failed: the next cycle
// walks it again.
func (s *Scrubber) repairFindings(w *workload.Workload, out *ScrubCycle) error {
	cluster := s.rec.cluster
	shipped, bytes, err := s.rec.Reship(out.Corrupt)
	if err != nil || len(shipped) == 0 {
		return err
	}
	out.RepairBytes = bytes
	s.cRepairBytes.Add(int64(bytes))
	for _, f := range shipped {
		cluster.ClearRot(int(f.Site), f.Object)
	}
	repaired := true
	for _, f := range shipped {
		err := s.verify(w, int(f.Site), cluster.SiteBases[f.Site], f.Object)
		var verr *webserve.IntegrityError
		switch {
		case errors.As(err, &verr):
			repaired = false
			s.logf("re-verify after repair: site %d object %d: %v", f.Site, f.Object, err)
		case err != nil:
			// A fetch failure says nothing about the bytes: count it as the
			// main pass does, and the next cycle re-checks the replica.
			out.Errors++
			s.cErrors.Inc()
		}
	}
	if !repaired {
		return nil
	}
	out.Repaired = true
	s.cRepairs.Inc()
	s.rec.opts.Journal.Record("scrub.repaired",
		trace.I("replicas", int64(len(shipped))),
		trace.I("copy_bytes", int64(bytes)))
	s.logf("repaired %d replicas, %d bytes re-shipped", len(shipped), int64(bytes))
	return nil
}
