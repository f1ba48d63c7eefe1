#!/usr/bin/env bash
# Builds the benchmark driver from source inside the checkout and runs it.
# Run from the repository root: bash bench/run.sh --workload cells-hot --seed 1
# Every byte the build writes (compiler cache, temporaries, the go command's
# own counters under its configuration directory, the binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$build/rcbr-bench" .
exec "$build/rcbr-bench" "$@"
