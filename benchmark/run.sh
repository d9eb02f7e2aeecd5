#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# arguments given. Run from the root of a checkout:
#   bash benchmark/run.sh --workload predict.small --seed 1 --seconds 16 --trace 0
# The Go build cache and temporary files are kept under .bench_build/ too,
# so a run reads and writes nothing outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -buildvcs=false -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
