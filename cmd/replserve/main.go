// Command replserve runs the paper's Section-2 system for real: it starts
// the repository and one HTTP server per local site on loopback ports,
// plans the replication, and serves pages whose multimedia URLs are
// rewritten on the fly per the plan. With -fetch it also drives a client
// over the pages (parallel local/repository chains, like the paper's
// browser model) and reports the observed split and timings; with -adapt it
// closes the Section-4.1 loop — a streaming estimator taps the live access
// path, a drift detector compares the estimate against the frequencies the
// plan was built from, and when the drift is actionable the planner re-runs
// and ships only the placement delta (one cycle after -fetch; a continuous
// loop with -serve).
//
// With -chaos LEVEL a deterministic fault plan (seeded from -seed) injects
// errors, resets, truncations, latency and outage windows into the site
// servers; the resilient client retries and falls back to the repository, so
// every fetch still completes.
//
// With -heal a self-healing supervisor probes every site's /healthz and,
// when a site stops answering (say, under -chaos outage windows), computes a
// repair plan — the dead site's pages re-homed onto survivors, replicas
// re-replicated — and applies it to the live cluster without a restart,
// reinstating the base placement once the site returns.
//
// With -scrub an anti-entropy scrubber walks every replica the live plan
// stores, verifies its self-describing payload end to end (catching replica
// rot and wire corruption that availability probes cannot see), and repairs
// corrupt replicas by re-shipping only their bytes from the repository.
//
// -heal, -adapt and -scrub compose: one reconciler owns the plan and the
// three loops submit what they see to it, so a repair builds on the adapted
// placement, a recovery returns to it, and a scrub repair reverts neither.
//
// With -overload every server gets the admission stack — a bounded
// deadline-aware queue (CoDel sojourn shedding), AIMD concurrency limits and
// brownout page degradation — and an open-loop arrival ramp (1s base rate,
// 1s 10x flash crowd, 2s base) is driven through the live cluster; the
// summary shows goodput, 429 sheds and brownout-degraded pages.
//
// Usage:
//
// With -trace every fetch is traced end to end — the client's page root,
// chains, retries, backoffs and fallbacks, plus the server-side serve spans
// stitched in via the X-Repl-Trace header — and the forest is written as
// JSONL for cmd/repltrace (-chrome additionally writes Perfetto-loadable
// trace-event JSON): the first 65,536 spans, with the count of those dropped
// after them printed beside the file name. With -journal the control plane
// records its flight recorder (probe transitions, repair plans, placement
// pushes, injected faults), serves it at /debug/journal, and prints the
// event tally on exit.
//
// Usage:
//
//	replserve [-seed N] [-storage F] [-fetch N] [-adapt] [-metrics] [-serve]
//	          [-chaos LEVEL] [-heal] [-scrub] [-overload] [-trace FILE]
//	          [-chrome FILE] [-journal]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/admission"
	"repro/internal/controller"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/webserve"
)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replserve", flag.ContinueOnError)
	seed := fs.Uint64("seed", 2026, "workload/estimate seed")
	storage := fs.Float64("storage", 0.5, "storage budget fraction")
	fetch := fs.Int("fetch", 20, "pages to fetch with the built-in client (0 = none)")
	adapt := fs.Bool("adapt", false, "run the online re-planning loop: estimate frequencies from live traffic, drift-gate a re-plan, ship only the delta (continuous with -serve)")
	metrics := fs.Bool("metrics", false, "serve a /metrics JSON snapshot and /debug/pprof/ on every server")
	serve := fs.Bool("serve", false, "keep serving until interrupted instead of exiting")
	chaos := fs.Float64("chaos", 0, "fault-injection level in [0,1]; 0 = healthy cluster")
	heal := fs.Bool("heal", false, "run the self-healing supervisor: probe /healthz, repair around dead sites, recover when they return")
	scrub := fs.Bool("scrub", false, "run the integrity scrubber: walk every stored replica, verify its self-describing payload end to end, and repair corrupt replicas with a delta-only re-ship (one cycle after -fetch; a continuous loop with -serve)")
	overload := fs.Bool("overload", false, "arm the admission stack (bounded deadline-aware queues, AIMD limits, brownout) and drive an open-loop 10x arrival ramp through the live cluster, reporting goodput, sheds and degradation")
	tracePath := fs.String("trace", "", "trace every fetch end to end and write the span forest to this JSONL file")
	chromePath := fs.String("chrome", "", "with -trace, also write the forest as Chrome trace-event JSON to this file")
	journalOn := fs.Bool("journal", false, "arm the control-plane flight recorder (served at /debug/journal, tallied on exit)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chromePath != "" && *tracePath == "" {
		return fmt.Errorf("-chrome requires -trace")
	}

	// A small workload: this command demonstrates the mechanics, not the
	// Table-1 volumes.
	w, err := repro.GenerateWorkload(repro.SmallWorkloadConfig(), *seed)
	if err != nil {
		return err
	}
	env, err := repro.PlanningEnv(w, *seed, *storage, 1)
	if err != nil {
		return err
	}
	placement, result, err := repro.Plan(env, repro.PlanOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "planned: D=%.1f feasible=%v\n", result.D, result.Feasible)

	var plan *faults.Plan
	if *chaos > 0 {
		plan, err = faults.Generate(*chaos, w.NumSites(), *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chaos: level %.2f fault plan armed (seed %d, repository clean)\n", *chaos, *seed)
	}

	var spanBuf *repro.SpanBuffer
	if *tracePath != "" {
		// The head of the run, bounded as the benchmark bounds it: under
		// -serve an unbounded buffer grows until the process dies.
		spanBuf = repro.NewSpanBuffer(1 << 16)
	}
	var journal *repro.EventJournal
	if *journalOn {
		journal = repro.NewEventJournal(0)
	}
	copts := webserve.ClusterOptions{
		Metrics:   *metrics,
		Faults:    plan,
		Trace:     spanBuf,
		TraceSeed: *seed,
		Journal:   journal,
	}
	if *overload {
		copts.Admission = &admission.Config{Seed: *seed}
		fmt.Fprintln(stdout, "admission: bounded deadline-aware queues armed on every server (CoDel sojourn law, AIMD limits, brownout)")
	}
	var freqEst *estimate.Estimator
	if *adapt {
		// A long half-life: one-shot demos observe seconds of traffic and
		// must not decay it away before the drift check.
		freqEst, err = estimate.New(w, estimate.Config{HalfLife: 3600})
		if err != nil {
			return err
		}
		copts.AccessTap = freqEst
	}
	cluster, err := webserve.StartClusterOptions(w, placement, copts)
	if err != nil {
		return err
	}
	clusterStart := time.Now()
	defer cluster.Close()
	if spanBuf != nil {
		defer func() {
			spans := spanBuf.Spans()
			if err := repro.SaveSpans(*tracePath, spans); err != nil {
				fmt.Fprintf(stdout, "trace: %v\n", err)
				return
			}
			fmt.Fprintf(stdout, "trace: %d spans written to %s, dropped=%d (repltrace -i %s -seed %d -storage %.2f)\n",
				len(spans), *tracePath, spanBuf.Dropped(), *tracePath, *seed, *storage)
			if *chromePath != "" {
				if err := repro.SaveChromeTrace(*chromePath, spans); err != nil {
					fmt.Fprintf(stdout, "trace: %v\n", err)
					return
				}
				fmt.Fprintf(stdout, "trace: Chrome trace written to %s\n", *chromePath)
			}
		}()
	}
	if journal != nil {
		fmt.Fprintf(stdout, "journal: flight recorder armed (GET %s/debug/journal)\n", cluster.RepoBase)
		defer func() {
			events := journal.Events()
			fmt.Fprintf(stdout, "journal: %d events recorded, %d dropped\n", journal.Total(), journal.Dropped())
			for _, tc := range repro.CountJournalEvents(events) {
				fmt.Fprintf(stdout, "  %-18s %6d\n", tc.Name, tc.Count)
			}
			for _, line := range repro.PlanLineage(events) {
				fmt.Fprintf(stdout, "  plan %s\n", line)
			}
		}()
	}

	fmt.Fprintf(stdout, "repository: %s\n", cluster.RepoBase)
	for i, base := range cluster.SiteBases {
		fmt.Fprintf(stdout, "site S%d:    %s  (%d pages)\n", i, base, len(w.Sites[i].Pages))
	}
	if *metrics {
		fmt.Fprintf(stdout, "metrics:    %s/metrics (and /debug/pprof/, on every server)\n", cluster.RepoBase)
	}
	fmt.Fprintf(stdout, "example page: %s\n\n", cluster.PageURL(w.Sites[0].Pages[0]))

	// One reconciler owns the plan; the three loops below only tell it what
	// they see, so they compose: a repair builds on the adapted base, a
	// recovery returns to it, and a scrub repair never reverts either.
	rec := controller.NewReconciler(env, placement, cluster, controller.ReconcilerOptions{
		Metrics: cluster.Metrics,
		Log:     stdout,
		Journal: journal,
	})

	if *heal {
		sup := rec.Supervisor(controller.Options{})
		sup.Start()
		defer func() {
			sup.Stop()
			repairs, recoveries := sup.Counts()
			fmt.Fprintf(stdout, "supervisor: %d repairs, %d recoveries applied\n", repairs, recoveries)
			if err := sup.Err(); err != nil {
				fmt.Fprintf(stdout, "supervisor: last error: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "self-healing: supervisor probing every site's /healthz (down after %d missed probes, repair applied live)\n", repair.FailThreshold)
	}

	var scrubber *controller.Scrubber
	if *scrub {
		scrubber = rec.Scrubber(controller.ScrubOptions{})
		fmt.Fprintln(stdout, "scrub: anti-entropy integrity scrubber armed (self-verifying payloads, delta-only repair)")
	}

	var adapter *controller.Adapter
	if *adapt {
		adapter, err = rec.Adapter(freqEst, controller.AdaptOptions{Interval: 5 * time.Second})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "adaptive: streaming estimator tapping the access path; drift-gated re-planning armed")
	}

	if *fetch > 0 {
		client := cluster.Client(webserve.ClientOptions{JitterSeed: *seed})
		client.Verify = true
		var localObjs, repoObjs, n int
		var retries, fallbacks, degraded int
		var elapsed time.Duration
		for i := 0; i < *fetch; i++ {
			site := i % w.NumSites()
			pid := w.Sites[site].Pages[i%len(w.Sites[site].Pages)]
			res, err := client.FetchPage(cluster.PageURL(pid), pid)
			if err != nil {
				return err
			}
			localObjs += res.LocalChain.Objects
			repoObjs += res.RemoteChain.Objects
			retries += res.Retries
			fallbacks += res.Fallbacks
			if res.Degraded() {
				degraded++
			}
			elapsed += res.Elapsed
			n++
		}
		fmt.Fprintf(stdout, "fetched %d pages: %d objects local, %d from the repository, avg %.1fms/page (loopback)\n",
			n, localObjs, repoObjs, float64(elapsed.Milliseconds())/float64(n))
		if *chaos > 0 {
			fmt.Fprintf(stdout, "resilience: %d retries, %d repository fallbacks, %d degraded pages — all %d fetches completed\n",
				retries, fallbacks, degraded, n)
		}
		if *metrics {
			fmt.Fprintln(stdout, "\ntelemetry snapshot:")
			if err := cluster.Metrics.Snapshot().WriteText(stdout); err != nil {
				return err
			}
		}
	}

	if *overload {
		fmt.Fprintln(stdout, "\noverload ramp: open-loop arrivals, 1s base + 1s 10x flash crowd + 2s base …")
		if err := overloadRamp(stdout, cluster, w, *seed); err != nil {
			return err
		}
	}

	if scrubber != nil && *fetch > 0 {
		fmt.Fprintln(stdout, "\nscrub cycle: walking every stored replica …")
		cyc, err := scrubber.RunCycle()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "scrub: %d replicas checked, %d clean, %d corrupt, %d fetch errors\n",
			cyc.Checked, cyc.Clean, len(cyc.Corrupt), cyc.Errors)
		if cyc.Repaired {
			fmt.Fprintf(stdout, "scrub: repaired %d replicas with a %v delta-only re-ship\n",
				len(cyc.Corrupt), cyc.RepairBytes)
		}
	}

	if adapter != nil && *fetch > 0 {
		fmt.Fprintln(stdout, "\nadaptive cycle: drift check on the streamed estimate …")
		cyc, err := adapter.CheckNow(time.Since(clusterStart).Seconds())
		if err != nil {
			return err
		}
		switch {
		case cyc.Replanned:
			fmt.Fprintf(stdout, "re-planned on observed traffic (D %.1f -> %.1f) and shipped the delta live (%v in %d copy sets)\n",
				cyc.Delta.DBefore, cyc.Delta.DAfter, cyc.Delta.CopyBytes, len(cyc.Delta.Copies))
		case cyc.Noop:
			fmt.Fprintln(stdout, "drift triggered but re-planning left the placement unchanged — nothing shipped")
		default:
			fmt.Fprintf(stdout, "no actionable drift (L1=%.3f) — plan stands\n", cyc.Decision.L1)
		}
	}

	if *serve {
		if scrubber != nil {
			scrubber.Start()
			defer func() {
				scrubber.Stop()
				cycles, objects, corrupt, repairs := scrubber.Counts()
				fmt.Fprintf(stdout, "scrub: %d cycles, %d replicas checked, %d corrupt, %d repairs, %v re-shipped\n",
					cycles, objects, corrupt, repairs, scrubber.RepairBytes())
			}()
			fmt.Fprintln(stdout, "scrub: continuous integrity cycles every 2s")
		}
		if adapter != nil {
			adapter.Start()
			defer func() {
				adapter.Stop()
				checks, triggers, replans, noops := adapter.Counts()
				fmt.Fprintf(stdout, "adaptive: %d checks, %d triggers, %d re-plans, %d no-ops, %v shipped\n",
					checks, triggers, replans, noops, adapter.CopyBytes())
			}()
			fmt.Fprintln(stdout, "adaptive: continuous drift checks every 5s")
		}
		// Block until SIGINT/SIGTERM so the deferred cluster.Close() (and
		// any other cleanup) actually runs on shutdown.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Fprintln(stdout, "\nserving — interrupt to stop")
		<-ctx.Done()
		stop()
		fmt.Fprintln(stdout, "shutting down")
		if *metrics {
			fmt.Fprintln(stdout, "final telemetry snapshot:")
			if err := cluster.Metrics.Snapshot().WriteText(stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// overloadRamp drives an open-loop arrival process at the live cluster: a
// base rate for 1s, a 10x flash crowd for 1s, then the base rate again for
// 2s (the arrival shape is a faults.LoadSpike, the same primitive the
// simulated study uses). Every request carries a propagated deadline in
// X-Repl-Deadline; the armed admission layer sheds with 429 + Retry-After
// when queues saturate and serves brownout-degraded pages under sustained
// pressure. Open-loop matters: arrivals do not slow down when the cluster
// does, which is exactly the regime where an unprotected server goes
// metastable.
func overloadRamp(stdout io.Writer, cluster *webserve.Cluster, w *repro.Workload, seed uint64) error {
	const (
		baseRate = 150.0 // req/s, comfortably loopback-feasible
		duration = 4 * time.Second
		deadline = 250 * time.Millisecond
	)
	plan := &faults.Plan{LoadSpikes: []faults.LoadSpike{{
		Window: faults.Window{Start: 1 * time.Second, End: 2 * time.Second},
		Factor: 10,
	}}}

	var urls []string
	for i := 0; i < w.NumSites(); i++ {
		for _, pid := range w.Sites[i].Pages {
			urls = append(urls, cluster.PageURL(pid))
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("overload: no pages to request")
	}

	var ok, shed, brown, errs atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{}
	arrivals := repro.NewStream(seed)
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if elapsed >= duration {
			break
		}
		rate := plan.RateAt(baseRate, elapsed)
		gap := time.Duration(-math.Log(1-arrivals.Float64()) / rate * float64(time.Second))
		time.Sleep(gap)
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err != nil {
				errs.Add(1)
				return
			}
			req.Header.Set(admission.DeadlineHeader, admission.FormatDeadline(time.Now().Add(deadline)))
			resp, err := client.Do(req)
			if err != nil {
				errs.Add(1)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusTooManyRequests:
				shed.Add(1)
			case resp.StatusCode == http.StatusOK:
				ok.Add(1)
				if t := resp.Header.Get(admission.BrownoutHeader); t != "" && t != "0" {
					brown.Add(1)
				}
			default:
				errs.Add(1)
			}
		}(urls[i%len(urls)])
	}
	wg.Wait()
	total := ok.Load() + shed.Load() + errs.Load()
	fmt.Fprintf(stdout, "overload: %d requests — %d served (%d brownout-degraded), %d shed with 429+Retry-After, %d client timeouts/errors\n",
		total, ok.Load(), brown.Load(), shed.Load(), errs.Load())
	if shed.Load() > 0 {
		fmt.Fprintf(stdout, "overload: goodput %.0f req/s over the ramp; the spike was absorbed by shedding, not by queueing doomed work\n",
			float64(ok.Load())/duration.Seconds())
	} else {
		fmt.Fprintf(stdout, "overload: goodput %.0f req/s over the ramp; the cluster stayed inside its admission limits — nothing needed shedding\n",
			float64(ok.Load())/duration.Seconds())
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "replserve: %v\n", err)
		os.Exit(1)
	}
}
