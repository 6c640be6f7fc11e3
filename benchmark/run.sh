#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from source into
# .bench_build/ inside the checkout (Go's build cache included, so nothing is
# written outside it) and runs it with the driver's arguments. Run from the
# repository root. `go run ./benchmark` is the same program for interactive use.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
