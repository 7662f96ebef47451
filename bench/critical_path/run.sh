#!/usr/bin/env bash
# Builds the critical-path benchmark in Release into build-critical-path/
# at the repository root, then runs each workload in its own process.
#
#   bench/critical_path/run.sh [--workload W]... [--seed N] [--seconds S]
#                              [--trace 0|1 | --traced]
#
# Without --workload all four workloads run in turn. Each run prints every
# metric as `name value unit`, then one JSON line
# {"correct", "attempted", "failed", "metrics"}, and writes a JSON document
# (with nproc, CPU model, compiler and build type) to
# build-critical-path/results/<workload>-seed<N>-trace<T>.json.
# Exits non-zero when the build fails or any run breaks an invariant.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-critical-path"

workloads=()
seed=1
seconds=10
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --traced) trace=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ ${#workloads[@]} -eq 0 ]]; then
  workloads=(publish_prove relay_fanout spam_flood validate_parallel)
fi

mkdir -p "$build"
log="$build/build.log"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } >"$log" 2>&1 ||
   ! cmake --build "$build" --target critical_path -j "$(nproc)" >>"$log" 2>&1; then
  cat "$log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi

mkdir -p "$build/results" "$build/work"
status=0
for w in "${workloads[@]}"; do
  "$build/critical_path" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --workdir "$build/work" \
    --out "$build/results/$w-seed$seed-trace$trace.json" || status=1
done
exit "$status"
