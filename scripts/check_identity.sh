#!/usr/bin/env bash
# Identity check: hashes the outputs of the seeded campaign benches and
# the metrics dump, so a change that must not alter behaviour can show
# that it did not.
#
#   scripts/check_identity.sh [--build DIR] [--against MANIFEST]
#
# Builds (Release, into DIR, default build-release/) and runs:
#   - bench_adversarial and bench_propagation in smoke mode;
#   - bench_operator_loop and bench_reshard at full size;
#   - the five example_metrics_dump outputs (text, --json, --traces,
#     --fleet, --postmortem);
#   - example_node_state_digest: per node of a persistent, sharded run with
#     the operator loop and a kill/restart, the SHA-256 of
#     serialize_state() and of the WAL record stream.
# The measured fields are dropped first: every `wall_ms` key and the
# `overhead` object (traced/untraced wall seconds and their ratio). What
# is left is a function of the seed alone. One line per output,
# `<sha256>  <name>`, goes to stdout. With --against, the lines are
# compared with MANIFEST (scripts/identity_manifest.txt is the committed
# one) and the script exits non-zero on any difference.
#
# To re-record the manifest after a deliberate behaviour change:
#   scripts/check_identity.sh > scripts/identity_manifest.txt
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-release"
against=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build) build="$2"; shift 2 ;;
    --against) against="$2"; shift 2 ;;
    *) echo "check_identity.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
build="$(realpath -m "$build")"
[[ -n "$against" ]] && against="$(realpath "$against")"

log="$(mktemp)"
if ! { [[ -f "$build/CMakeCache.txt" ]] ||
       cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release; } >"$log" 2>&1 ||
   ! cmake --build "$build" -j "$(nproc)" --target bench_adversarial \
       bench_propagation bench_operator_loop bench_reshard \
       example_metrics_dump example_node_state_digest >>"$log" 2>&1; then
  cat "$log" >&2
  rm -f "$log"
  echo "check_identity.sh: build failed" >&2
  exit 1
fi
rm -f "$log"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

run() {  # run <name> <command...>: stdout to <name>.out, stderr to <name>.err
  local name="$1"
  shift
  if ! "$@" >"$name.out" 2>"$name.err"; then
    cat "$name.out" "$name.err" >&2
    echo "check_identity.sh: $name failed" >&2
    exit 1
  fi
}

# Campaign outputs (argv[1] is the output path).
run adversarial "$build/bench_adversarial" adversarial.json --smoke
run propagation "$build/bench_propagation" propagation.json --smoke
run operator_loop "$build/bench_operator_loop" operator_loop.json
run reshard "$build/bench_reshard" reshard.json
# Exposition outputs (stdout).
for mode in text json traces fleet postmortem; do
  flag="--$mode"
  [[ "$mode" == text ]] && flag=""
  run "metrics_dump_$mode" "$build/example_metrics_dump" $flag
done
run node_state_digest "$build/example_node_state_digest"

hashes="$work/hashes.txt"
python3 - "$work" >"$hashes" <<'EOF'
import hashlib
import json
import sys

MEASURED_KEYS = {"wall_ms", "overhead"}


def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k not in MEASURED_KEYS}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


work = sys.argv[1]
for name in ("adversarial", "propagation", "operator_loop", "reshard"):
    with open(f"{work}/{name}.json") as f:
        doc = strip(json.load(f))
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  bench_{name}.json")
for mode in ("text", "json", "traces", "fleet", "postmortem"):
    with open(f"{work}/metrics_dump_{mode}.out", "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    print(f"{digest}  example_metrics_dump.{mode}")
with open(f"{work}/node_state_digest.out", "rb") as f:
    print(f"{hashlib.sha256(f.read()).hexdigest()}  example_node_state_digest")
EOF
cat "$hashes"

if [[ -n "$against" ]]; then
  if diff -u "$against" "$hashes" >&2; then
    echo "check_identity.sh: all outputs match $against" >&2
  else
    echo "check_identity.sh: outputs differ from $against" >&2
    exit 1
  fi
fi
