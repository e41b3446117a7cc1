#!/bin/sh
# ci.sh — the full verification pipeline, tiered into named stages.
# Everything here must pass before a change lands: formatting, build + vet +
# the repllint analyzer suite, the complete test suite, the race detector
# cold on every package, coverage on the planner core, and a single
# pinned-GOMAXPROCS pass of every benchmark followed by a regression diff
# against the previous snapshot.
#
# CI_STAGES selects a subset, e.g.:
#
#	CI_STAGES="fmt lint test" scripts/ci.sh
#
# Stages: fmt lint lintx test race cover bench.
# The default runs them all, in order, and prints a wall-clock summary at the
# end (the PR-gate workflow runs each stage as its own named step instead).
set -eu

cd "$(dirname "$0")/.."

CI_STAGES="${CI_STAGES:-fmt lint lintx test race cover bench}"

# gofmt with -s: any unformatted file fails the stage.
stage_fmt() {
    unformatted=$(gofmt -s -l .)
    if [ -n "$unformatted" ]; then
        echo "unformatted files (gofmt -s):" >&2
        echo "$unformatted" >&2
        return 1
    fi
}

# Build, vet, and the custom analyzer suite (internal/lint): determinism,
# rng-stream labels, sorted iteration, float compares, telemetry naming,
# error discipline, span balance. Any finding fails the build; see
# DESIGN.md §11 for the rules and the //repllint:allow escape hatch.
stage_lint() {
    go build ./...
    go vet ./...
    go run ./cmd/repllint ./...
}

# The interprocedural suite as a strict gate, with the machine-readable
# finding stream archived next to the BENCH_*.json snapshots: the whole-
# module run (determinism taint, goroutine leaks, hotpath-alloc against the
# committed .repllint-hotpath.json baseline) plus -strict-allow, which turns
# any //repllint:allow that suppresses nothing into an error. A failure
# reprints the findings with their full call chains for the log.
stage_lintx() {
    stamp=$(date -u +%Y%m%dT%H%M%SZ)
    out="REPLLINT_${stamp}.json"
    if go run ./cmd/repllint -strict-allow -json ./... >"$out"; then
        echo "repllint strict run clean; archived $out"
    else
        echo "repllint strict run failed (archived $out):" >&2
        go run ./cmd/repllint -strict-allow -chains ./... >&2 || true
        return 1
    fi
}

# The complete test suite, plus two cold -count=1 pins outside any warm
# test cache: the metrics endpoint smoke test and the span-forest
# determinism goldens (same seed ⇒ byte-identical httpsim span export,
# deterministic trace IDs, stable JSONL and Chrome encodings).
stage_test() {
    go test ./...
    go test -count=1 -run TestMetricsEndpoint ./internal/webserve/
    go test -count=1 -run 'TestTraceGolden|TestIDGenDeterministicAndNonZero|TestJSONLRoundTripAndDeterminism|TestChromeExportValidAndDeterministic' \
        ./internal/httpsim/ ./internal/trace/
}

# Module-wide race detector, not a hand-picked list, so a new concurrent
# package can never silently skip it, and -count=1 so a warm test cache can
# never skip a package. This is also the chaos, self-healing, adaptive-loop,
# integrity and overload gate: those surfaces' tests (fault plans, the
# supervisor and its composed chaos test, the estimator and adapter, the
# payload codec and scrubber, the admission stack) all live in ./... .
stage_race() {
    go test -race -count=1 ./...
}

# Planner-core statement coverage against a floor.
stage_cover() {
    : "${CI_CORE_COVER_FLOOR:=90}"
    echo "(internal/core floor ${CI_CORE_COVER_FLOOR}%)"
    cover_out=$(mktemp)
    go test -count=1 -coverprofile="$cover_out" ./internal/core/
    core_cover=$(go tool cover -func="$cover_out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    rm -f "$cover_out"
    echo "internal/core statement coverage: ${core_cover}%"
    if awk -v c="$core_cover" -v floor="$CI_CORE_COVER_FLOOR" 'BEGIN { exit !(c < floor) }'; then
        echo "internal/core coverage ${core_cover}% is below the ${CI_CORE_COVER_FLOOR}% floor" >&2
        return 1
    fi
}

# Every benchmark once, GOMAXPROCS pinned so ns/op numbers are comparable
# across runners of different widths and -count=1 so a warm test cache can
# never skip the pass; then the regression diff against the previous
# BENCH_<stamp>.json snapshot. A single -benchtime=1x pass is too noisy to
# block local work on, so the diff only warns here; the CI workflow exports
# CI_BENCHDIFF_FATAL=1 (and CI_BENCHTIME=3x to average the noise down) to
# make a >15 % ns/op regression fail the build.
stage_bench() {
    GOMAXPROCS=4 scripts/bench.sh . "${CI_BENCHTIME:-1x}"
    if [ "${CI_BENCHDIFF_FATAL:-0}" = "1" ]; then
        scripts/benchdiff.sh
    else
        scripts/benchdiff.sh || echo "benchdiff: regression reported (non-fatal locally; CI_BENCHDIFF_FATAL=1 enforces)"
    fi
}

summary=""
for stage in $CI_STAGES; do
    case "$stage" in
    fmt | lint | lintx | test | race | cover | bench) ;;
    *)
        echo "ci.sh: unknown stage \"$stage\" (stages: fmt lint lintx test race cover bench)" >&2
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
