#!/usr/bin/env bash
# Tier-1 test suite under sanitizers.
#
# Default flavor builds into build-asan/ with
# -DWAKU_SANITIZE=address,undefined, runs the full ctest suite, then builds
# the examples and runs every example_* binary (multi-node end-to-end
# runs: gossip fan-out over shared frame buffers, slashing, light
# clients; logs in example_logs/ in the build directory). Memory
# errors in the persistence layer (file IO, torn-tail truncation, byte
# juggling) are exactly the class of bug a sanitizer catches and a green
# test run hides.
#
# The "thread" flavor builds into build-tsan/ with -DWAKU_SANITIZE=thread
# and runs the concurrency-touching suites (the multithreaded validation
# executor, concurrent nullifier log, seqlock'd root window, shard-map memo,
# and the per-depth constraint system and keypair that concurrent provers
# build on first touch and then share, in test_zksnark): data races are
# invisible to ASan and to an unsanitized run, and TSan over the full
# suite is needlessly slow — the single-threaded persistence suites
# cannot race. It then stress-runs the nullifier-log
# (ConcurrentNullifierLog) and root-window (GroupManagerConcurrency) tests
# in four concurrent processes each (logs: nullifier_log_stress_*.log and
# root_window_stress_*.log in the build directory).
#
# Usage: scripts/run_tier1.sh [sanitizer-spec]
#   sanitizer-spec  passed to -fsanitize= (default: address,undefined);
#                   "thread" selects the TSan flavor described above
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SAN="${1:-address,undefined}"

if [ "$SAN" = "thread" ]; then
  BUILD="$ROOT/build-tsan"
else
  BUILD="$ROOT/build-asan"
fi

cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DWAKU_SANITIZE="$SAN" >/dev/null
cmake --build "$BUILD" -j"$(nproc)"

cd "$BUILD"

if [ "$SAN" = "thread" ]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
  # The suites that actually spin up threads or exercise the shared
  # validation state: the executor/nullifier-log/partition-invariance
  # suite, the sharding suite (shard-map memo, per-shard pipelines),
  # the observability suite (lock-free histograms / trace collector
  # recorded from concurrent workers), and the zksnark
  # suite (provers racing to build and then read one sealed system).
  registered="$(ctest -N)"
  for suite in test_parallel_validation test_sharding test_obs test_zksnark; do
    if ! grep -q "$suite" <<<"$registered"; then
      echo "error: $suite missing from the ctest suite" >&2
      exit 1
    fi
  done
  ctest --output-on-failure -j"$(nproc)" \
    -R '^(test_parallel_validation|test_sharding|test_obs|test_zksnark)$'
  # One unloaded run rarely hits the observe/gc interleavings of the
  # nullifier log or the writer/reader interleavings of the root
  # window (event-at-a-time and block-at-a-time writers): repeat those
  # tests in four concurrent processes so the schedulers contend, and fail
  # if any process fails. The root-window tests insert into a depth-16
  # tree, about a second per pass unsanitized, so they repeat fewer times.
  stress() {
    local name="$1" filter="$2" repeat="$3"
    local pids=() failed=0
    for i in 1 2 3 4; do
      ./test_parallel_validation --gtest_filter="$filter" \
        --gtest_repeat="$repeat" --gtest_brief=1 >"${name}_stress_$i.log" 2>&1 &
      pids+=("$!")
    done
    for i in 1 2 3 4; do
      if ! wait "${pids[$((i - 1))]}"; then
        echo "error: $filter stress process $i failed:" >&2
        tail -n 50 "${name}_stress_$i.log" >&2
        failed=1
      fi
    done
    return "$failed"
  }
  stress nullifier_log 'ConcurrentNullifierLog.*' 200
  stress root_window 'GroupManagerConcurrency.*' 20
  echo "concurrency suites passed under -fsanitize=thread"
  exit 0
fi

# halt_on_error so ctest reports sanitizer findings as failures; UBSan
# prints stacks for every hit.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

# The adversarial scenario, sharding, and live-reshard suites must be
# part of every sanitized run — the sim layer drives long event cascades
# through every subsystem, the sharded relay adds per-shard state
# machines plus shard-tagged WAL recovery, and the reshard engine moves
# pipelines between validator containers mid-flight; exactly where
# lifetime bugs hide. Fail loudly if any ever drops out of the glob.
# (capture first: `ctest -N | grep -q` would trip pipefail via SIGPIPE)
registered="$(ctest -N)"
for suite in test_scenarios test_sharding test_reshard; do
  if ! grep -q "$suite" <<<"$registered"; then
    echo "error: $suite missing from the ctest suite" >&2
    exit 1
  fi
done
ctest --output-on-failure -j"$(nproc)"

# Every example under the same sanitizers. A finding fails the run by its
# exit status (halt_on_error) and, should a report not end the process,
# by its text in the log.
cmake --build "$BUILD" --target examples -j"$(nproc)"
mkdir -p example_logs
ran=0
for example in ./example_*; do
  [ -f "$example" ] && [ -x "$example" ] || continue
  name="$(basename "$example")"
  log="example_logs/$name.log"
  if ! "$example" >"$log" 2>&1 ||
     grep -qE 'runtime error:|(Address|Leak|UndefinedBehavior)Sanitizer' "$log"; then
    echo "error: $name failed under -fsanitize=$SAN:" >&2
    tail -n 50 "$log" >&2
    exit 1
  fi
  ran=$((ran + 1))
done
if [ "$ran" -eq 0 ]; then
  echo "error: no example_* binary was built" >&2
  exit 1
fi
echo "tier-1 suite (incl. adversarial scenarios + sharding + live reshard) and $ran examples passed under -fsanitize=$SAN"
