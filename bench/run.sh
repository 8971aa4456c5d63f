#!/usr/bin/env bash
# Builds the benchmark and the served binary from the checkout it is run in,
# then runs one workload:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it writes (Go build cache,
# binaries, stores, journals) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout. Builds are excluded from every metric.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$build/served" ./cmd/served
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" --root "$root" --served "$build/served" --work "$build/work" "$@"
