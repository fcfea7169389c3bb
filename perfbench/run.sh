#!/usr/bin/env bash
# Builds the program's CLIs and the benchmark from source into
# .bench_build/ and runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Everything it builds or writes stays
# under .bench_build/ (the Go build cache included).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOTELEMETRY=off GOENV=off

go build -o "$build/bin/" ./cmd/glacsim ./cmd/glacreport
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
