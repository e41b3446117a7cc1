#!/bin/sh
# ci.sh — the full verification pipeline, tiered into named stages.
# Everything here must pass before a change lands: formatting, build + vet +
# the repllint analyzer suite (four rules, each kept because a mutation of
# its bug class passes the tests), the complete test suite with every example run
# once, the replsim -spans | repltrace pipeline run once, and the payload wire format pinned to its committed corpus and fuzzed,
# the race detector cold on every package with coverage floors on the
# planner core, the cost model, repair planning and the probe law, the
# reference database, the adaptation pipeline, the admission gate, the span
# model, the control plane, the LRU cache, the cache baselines, the
# request simulator, the experiment harness, the workload generator, the
# random streams and the lint suite checked from that one pass, and a smoke pass that compiles and runs every benchmark once and
# vets and tests the nested benchmark/ module (measuring is
# benchmark/run.sh's job, not this script's).
#
# CI_STAGES selects a subset, e.g.:
#
#	CI_STAGES="fmt lint test" scripts/ci.sh
#
# Stages: fmt lint test race bench.
# The default runs them all, in order, and prints a wall-clock summary at the
# end (the PR-gate workflow runs each stage as its own named step instead).
set -eu

cd "$(dirname "$0")/.."

CI_STAGES="${CI_STAGES:-fmt lint test race bench}"

# gofmt with -s: any unformatted file fails the stage.
stage_fmt() {
    unformatted=$(gofmt -s -l .)
    if [ -n "$unformatted" ]; then
        echo "unformatted files (gofmt -s):" >&2
        echo "$unformatted" >&2
        return 1
    fi
}

# Build, vet, and the custom analyzer suite (internal/lint): its four rules
# (determinism, sorted-iteration, float-compare, error-discipline) over the
# whole module, plus the audit that turns any //repllint:allow which
# suppresses nothing into a finding. repllint has no flags: every run is the
# whole suite. Any finding fails the build and prints as
# file:line: rule: message; see DESIGN.md §11 for the rules, the mutation
# that keeps each one, and the escape hatch.
stage_lint() {
    go build ./...
    go vet ./...
    go run ./cmd/repllint ./...
}

# The complete test suite. (Nothing is re-run cold here: stage_race runs the
# whole module -count=1, the metrics endpoint smoke test and the span-forest
# determinism goldens included.) Then every example program once — go build
# only compiles them, and they are the facade's callers. The suite itself
# pins the payload keystream (TestKeystreamKnownAnswer) and verifies the
# committed corpus's genuine and mutated entries
# (TestCommittedCorpusIsCurrent), so a keystream change with a stale corpus
# fails go test. The regenerate-and-diff after it additionally pins the
# header codec's files (wide-header, padding-games) byte for byte, and the
# hand-written codec is fuzzed for fifteen seconds against the decoder's
# contract (longrun.yml gives it ten minutes). Between them the documented
# tracing pipeline runs once: a capacity-bound replsim -spans file, read by
# repltrace, must be compared against the plan's predicted D.
stage_test() {
    go test ./...
    for d in examples/*/; do go run "./$d" >/dev/null; done
    spans=$(mktemp)
    go run ./cmd/replsim -scale small -requests 40 -capacity 0.15 -spans "$spans" >/dev/null
    trace_out=$(go run ./cmd/repltrace -i "$spans")
    rm -f "$spans"
    case $trace_out in
    *"predicted D"*) ;;
    *)
        echo "repltrace printed no predicted D for a replsim -spans file" >&2
        return 1
        ;;
    esac
    go run ./internal/webserve/gencorpus >/dev/null
    git diff --exit-code internal/webserve/testdata
    go test -run '^$' -fuzz FuzzPayloadRoundTrip -fuzztime 15s ./internal/webserve/
}

# Module-wide race detector, not a hand-picked list, so a new concurrent
# package can never silently skip it, and -count=1 so a warm test cache can
# never skip a package. This is also the chaos, self-healing, adaptive-loop,
# integrity and overload gate: those surfaces' tests (fault plans, the
# supervisor and its composed chaos test, the estimator and adapter, the
# payload codec and scrubber, the admission stack) all live in ./... .
#
# The same pass writes the coverage profile that statement coverage is held
# against a floor from, per package: the planner core, the cost model,
# repair planning and the probe law (repair), the reference database, the
# adaptation pipeline (estimate), admission control, the span model (trace),
# the control plane (controller), the LRU cache (lru), the baselines that
# run on it (policies), the request simulator (httpsim), the experiment
# harness (experiments), the workload generator (workload), the random
# streams (rng) and the lint suite (lint), each floor
# the package's measured race-profile coverage rounded down — so new code in
# any of them, the planner's stored-but-remote index, the placement slab's
# Clone/Equal/JSON paths, the reference database's reuse of unchanged pages,
# the shared re-plan step, the admission gate's and the probe law's step
# machines, the span buffer's arena and full state, the control sources'
# steps and a failed commit, the dense LRU ring, the simulator's record,
# replay and trace validation, the harness's
# shared-partition plans and their core.Plan bypass, and the sampler's flat
# overlay and the validator's stamps, and the remaining lint rules' code
# included, has to be
# reached by tests to land. The control plane's tests drive each source by
# its step (Supervisor.Probe, Adapter.CheckNow, Scrubber.RunCycle), so they
# reach the loops' error paths too, and its floor needs no excuse.
stage_race() {
    cover_out=$(mktemp)
    go test -race -count=1 -coverprofile="$cover_out" ./...
    for pair in core:95 model:92 repair:97 htmlrefs:94 estimate:96 admission:92 trace:89 controller:92 lru:100 policies:96 httpsim:93 experiments:85 workload:91 rng:96 lint:87; do
        pkg="internal/${pair%%:*}" floor="${pair##*:}"
        # A profile line is "file:block statements count"; the package's
        # coverage is the share of its statements in blocks that ran.
        cover=$(awk -v dir="repro/$pkg/" '
            index($1, dir) == 1 && index(substr($1, length(dir) + 1), "/") == 0 {
                n[$1] = $2; if ($3 > 0) hit[$1] = 1
            }
            END {
                for (b in n) { total += n[b]; if (b in hit) covered += n[b] }
                printf "%.1f", total ? 100 * covered / total : 0
            }' "$cover_out")
        echo "$pkg statement coverage: ${cover}% (floor ${floor}%)"
        if awk -v c="$cover" -v floor="$floor" 'BEGIN { exit !(c < floor) }'; then
            echo "$pkg coverage ${cover}% is below the ${floor}% floor" >&2
            rm -f "$cover_out"
            return 1
        fi
    done
    rm -f "$cover_out"
}

# Benchmarks must keep compiling and running: every one once, except
# BenchmarkGreedyGap (10 s and ~1 GB per pass for a certificate the test
# suite already checks at small scale). Then the nested benchmark/ module,
# which tier-1's ./... never builds: it compiles against internal/core,
# repair, controller and experiments, so a rename there would otherwise go
# unnoticed until the benchmark itself ran. Numbers come from
# benchmark/run.sh (see benchmark/README.md), never from this 1x pass.
stage_bench() {
    go test -run '^$' -bench . -benchtime 1x -skip '^BenchmarkGreedyGap$' ./...
    (cd benchmark && go vet ./... && go test ./...)
}

summary=""
for stage in $CI_STAGES; do
    case "$stage" in
    fmt | lint | test | race | bench) ;;
    *)
        echo "ci.sh: unknown stage \"$stage\" (stages: fmt lint test race bench)" >&2
        exit 2
        ;;
    esac
    echo "== $stage =="
    stage_start=$(date +%s)
    "stage_$stage"
    stage_secs=$(($(date +%s) - stage_start))
    summary="$summary$(printf '  %-6s %4ss' "$stage" "$stage_secs")
"
done

echo "== stage timings =="
printf '%s' "$summary"
echo "CI OK ($CI_STAGES)"
