#!/usr/bin/env bash
# tools/bench.sh — run the PR-tracked benchmark set with benchstat-comparable
# output (the plain `go test -bench` text format benchstat consumes).
#
# Usage:
#   tools/bench.sh [output-file]           # full tracked set, BENCH_COUNT runs
#   BENCH_COUNT=10 tools/bench.sh before.txt
#   BENCH_PATTERN='BenchmarkSweepParallel' tools/bench.sh
#   BENCH_SMOKE=1 tools/bench.sh           # one iteration per benchmark (CI)
#
# Typical before/after comparison:
#   git stash && tools/bench.sh /tmp/before.txt && git stash pop
#   tools/bench.sh /tmp/after.txt
#   benchstat /tmp/before.txt /tmp/after.txt
set -euo pipefail
cd "$(dirname "$0")/.."

count="${BENCH_COUNT:-5}"
benchtime="${BENCH_TIME:-}"
pattern="${BENCH_PATTERN:-^(BenchmarkClosedLoopSimulation|BenchmarkSearchHybrid|BenchmarkJointCaseStudy|BenchmarkMulticoreCoDesign|BenchmarkSweepParallel|BenchmarkHybridSharedCache|BenchmarkWCETAnalysis|BenchmarkSporadicEval|BenchmarkCacheSimulation|BenchmarkExpm)$}"
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
