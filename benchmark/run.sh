#!/usr/bin/env bash
# BENCHMARK.json's command. Run from the root of a checkout: builds brmibench
# (this directory is a module of its own that imports the checkout's packages
# through a replace directive) and runs it with the given arguments.
# Everything the build writes -- the binary, Go's build cache, the
# toolchain's own counters -- stays under .bench_build/ in the checkout.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
go build -C benchmark -o ../.bench_build/brmibench .
exec .bench_build/brmibench "$@"
