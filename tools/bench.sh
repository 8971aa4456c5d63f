#!/usr/bin/env bash
# tools/bench.sh — run the PR-tracked benchmark set and print the plain
# `go test -bench -benchmem` text, one line per benchmark per run.
#
# Usage:
#   tools/bench.sh [output-file]           # full tracked set, BENCH_COUNT runs
#   BENCH_COUNT=10 tools/bench.sh before.txt
#   BENCH_PATTERN='BenchmarkSweepParallel' tools/bench.sh
#   BENCH_SMOKE=1 tools/bench.sh           # one iteration per benchmark (CI)
#
# Typical before/after comparison: record both sides with the same
# BENCH_COUNT on the same machine, then compare them with tools/benchcmp,
# which prints each benchmark's median and quartiles of ns/op, B/op and
# allocs/op on both sides, the change in the median, the run pairs the
# change won and a verdict (9 wins in 10 pairs, beyond the parent's spread):
#   git stash && BENCH_COUNT=10 tools/bench.sh /tmp/before.txt && git stash pop
#   BENCH_COUNT=10 tools/bench.sh /tmp/after.txt
#   go run ./tools/benchcmp /tmp/before.txt /tmp/after.txt
# Pairs are formed by run order, so against machine drift record the sides
# alternately (BENCH_COUNT=1, repeated, appending to each side's file).
# One file alone prints its medians and quartiles: go run ./tools/benchcmp f.txt
set -euo pipefail
cd "$(dirname "$0")/.."

count="${BENCH_COUNT:-5}"
benchtime="${BENCH_TIME:-}"
pattern="${BENCH_PATTERN:-^(BenchmarkClosedLoopSimulation|BenchmarkDesignHolistic|BenchmarkCodesignBlock|BenchmarkSearchHybrid|BenchmarkJointCaseStudy|BenchmarkMulticoreCoDesign|BenchmarkSweepParallel|BenchmarkStoredSweepWarm|BenchmarkHybridSharedCache|BenchmarkWCETAnalysis|BenchmarkWCETAnalysisAllWays|BenchmarkSporadicEval|BenchmarkCacheSimulation|BenchmarkExpm)$}"
out="${1:-}"

args=(test -run '^$' -bench "$pattern" -benchmem -count "$count")
if [ -n "${BENCH_SMOKE:-}" ]; then
  args+=(-benchtime 1x -count 1)
elif [ -n "$benchtime" ]; then
  args+=(-benchtime "$benchtime")
fi
args+=(.)

if [ -n "$out" ]; then
  go "${args[@]}" | tee "$out"
else
  go "${args[@]}"
fi
