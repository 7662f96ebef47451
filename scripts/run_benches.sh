#!/usr/bin/env bash
# Builds all bench targets in Release and emits one BENCH_<name>.json per
# JSON-writing bench into the output directory (default: repo root), so
# successive PRs have a comparable perf trajectory. Print-only benches run
# too; their tables go to stdout only.
#
# Usage: scripts/run_benches.sh [--smoke] [output-dir] [bench-name ...]
#   --smoke      tiny workloads (seconds, not minutes): exports
#                WAKU_BENCH_SMOKE=1 (honored by the standalone benches) and
#                caps google-benchmark measuring time
#   output-dir   where the JSON files land (created if missing)
#   bench-name   optional subset (e.g. bench_batch_validation); default all
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-release"

SMOKE=0
if [ "${1:-}" = "--smoke" ]; then
  SMOKE=1
  shift
fi

OUT="${1:-$ROOT}"
shift $(( $# > 0 ? 1 : 0 )) || true
ONLY=("$@")

mkdir -p "$OUT"
cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target benches -j"$(nproc)"

GBENCH_ARGS=()
if [ "$SMOKE" = 1 ]; then
  export WAKU_BENCH_SMOKE=1
  GBENCH_ARGS+=(--benchmark_min_time=0.05)  # plain seconds: gbench 1.7 syntax
fi

want() {
  [ ${#ONLY[@]} -eq 0 ] && return 0
  local name
  for name in "${ONLY[@]}"; do
    [ "$name" = "$1" ] && return 0
  done
  return 1
}

for bin in "$BUILD"/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  want "$name" || continue
  echo "== $name"
  case "$name" in
    bench_batch_validation|bench_bootstrap|bench_adversarial|bench_sharding|bench_reshard|bench_parallel_validation|bench_telemetry_overhead|bench_operator_loop|bench_propagation|bench_membership_scale)
      # Standalone benches: each writes its own JSON schema and honors
      # WAKU_BENCH_SMOKE.
      "$bin" "$OUT/BENCH_${name#bench_}.json"
      ;;
    bench_merkle_ops|bench_proof_generation|bench_proof_verification|bench_routing_validation)
      # google-benchmark benches: native JSON reporter.
      "$bin" --benchmark_format=console \
             --benchmark_out_format=json \
             --benchmark_out="$OUT/BENCH_${name#bench_}.json" \
             "${GBENCH_ARGS[@]}"
      ;;
    bench_epoch_thr|bench_gas_costs|bench_key_sizes|bench_onchain_vs_offchain|bench_slashing|bench_spam_containment|bench_tree_storage)
      # Print-only benches: take no arguments and write no JSON.
      "$bin"
      ;;
    *)
      echo "run_benches.sh: $name is in none of the bench lists above" >&2
      exit 1
      ;;
  esac
done
echo "bench JSONs written to $OUT"
