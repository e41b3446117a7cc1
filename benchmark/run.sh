#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it. Run it
# from the repository root:
#
#	sh benchmark/run.sh --workload live-small --seed 7 --seconds 16 --trace 0
#
# With no --workload it runs all six workloads and prints a table;
# "compare A B" judges result set B against A. See benchmark/README.md.
set -eu
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"
# The go command writes nothing outside the checkout: its build cache, its
# module path, its scratch space and the home directory it keeps its own
# counters under all live in the build directory.
(
	cd benchmark
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/gopath" \
		GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
		go build -o "$build/benchmark" .
)
exec "$build/benchmark" "$@"
