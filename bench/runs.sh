#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json once per seed, untraced, and keeps
# each run's output as OUT_DIR/<side>/<workload>-<seed>.out for bench/cmp.
#
#   bench/runs.sh OUT_DIR RUNS [CHECKOUT...]
#
# Seeds run from $SEED0 (default 1) on.
# With one checkout (default: the current directory) the runs calibrate:
#   bench/runs.sh /tmp/runs 10 && (cd bench && go run ./cmp -benchmark ../BENCHMARK.json /tmp/runs/0)
# With two checkouts — a parent and a change — each seed runs on both,
# alternating which side goes first, so slow drifts of the machine hit
# both sides alike:
#   bench/runs.sh /tmp/runs 10 ../parent . &&
#     (cd bench && go run ./cmp -benchmark ../BENCHMARK.json /tmp/runs/0 /tmp/runs/1)
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: bench/runs.sh OUT_DIR RUNS [CHECKOUT...]" >&2
  exit 2
fi
out=$1
runs=$2
shift 2
checkouts=("$@")
[ ${#checkouts[@]} -eq 0 ] && checkouts=(.)

def=BENCHMARK.json
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$def")
workloads=$(sed -n 's/.*"name": *"\([^"]*\)", *"why".*/\1/p' "$def")

for side in "${!checkouts[@]}"; do
  mkdir -p "$out/$side"
done
first=${SEED0:-1}
for seed in $(seq "$first" $((first + runs - 1))); do
  for w in $workloads; do
    order=("${!checkouts[@]}")
    if [ $((seed % 2)) -eq 0 ]; then
      order=($(printf '%s\n' "${order[@]}" | sort -rn))
    fi
    for side in "${order[@]}"; do
      dest=$(cd "$out/$side" && pwd)/$w-$seed.out
      (cd "${checkouts[$side]}" && bash bench/run.sh --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 >"$dest") || echo "run $w seed $seed side $side failed" >&2
    done
  done
done
