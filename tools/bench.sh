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
# BENCH_COUNT on the same machine, then compare each benchmark's median
# ns/op, B/op and allocs/op across its runs, and read a difference as real
# only when it is larger than the spread of the runs:
#   git stash && BENCH_COUNT=10 tools/bench.sh /tmp/before.txt && git stash pop
#   BENCH_COUNT=10 tools/bench.sh /tmp/after.txt
# The median ns/op of every benchmark in one file (field 5 is B/op, 7 allocs/op):
#   awk '/^Benchmark/ {print $1, $3}' /tmp/before.txt | sort -k1,1 -k2,2g |
#     awk '{v[$1, ++n[$1]] = $2} END {for (b in n) print b, v[b, int((n[b] + 1) / 2)]}'
# benchstat (golang.org/x/perf), where it is installed, does the same
# comparison with significance tests: benchstat /tmp/before.txt /tmp/after.txt
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
