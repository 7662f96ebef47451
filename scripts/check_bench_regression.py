#!/usr/bin/env python3
"""Bench regression guard: diff fresh BENCH_*.json against the committed
baselines and fail on meaningful throughput regressions.

Usage:
    scripts/check_bench_regression.py <fresh-dir> [--baseline-dir DIR]
                                      [--tolerance FRACTION]

Run as the final step of the smoke-bench CI job: scripts/run_benches.sh
--smoke <fresh-dir> produces the fresh JSONs, this script compares them
to the BENCH_*.json committed at the repo root.

What is compared
----------------
By default only MACHINE-PORTABLE metrics: speedup ratios and delivery /
dip fractions, which survive the hop from the baseline machine to a CI
runner. A >tolerance (default 25%) drop in

  * batch-validation speedup (largest batch vs batch=1 msgs/sec),
  * sharding aggregate speedup at 4 shards and at the max shard count,
  * live-reshard honest delivery,
  * parallel-validation executor efficiency at the widest worker count
    (speedup normalized by available cores) and the shard-map memo
    speedup (capped, see the extractor),

  * propagation-tracing reconstruction (complete-tree fraction and
    reachability from BENCH_propagation.json),

or a >tolerance INCREASE in the live-reshard cutover throughput dip,
fails the build. So does a fresh JSON whose `hardware_threads` differs
from its baseline's (the efficiency figures are per core); the rows are
still compared and printed. The tracing-overhead fractions are
additionally hard-capped at 3% (HARD_CAPS below). Raw msgs/sec are compared when
WAKU_BENCH_STRICT_ABSOLUTE=1 (same-machine perf tracking; meaningless
across machine classes, so off in CI).

Deterministic sizes, compared exactly
-------------------------------------
Byte counts of tree storage, snapshots and checkpoints depend only on
the member count and the code, never on the machine, so they are
compared for equality, not within a tolerance:

  * BENCH_membership_scale.json "bootstrap" rows: tree_storage_bytes,
    snapshot_bytes and checkpoint_bytes;
  * BENCH_bootstrap.json "summary" rows: full_tree_storage_bytes.

Rows are matched by "members": a smoke run measures fewer sizes than
the committed full run, and a size only one side has is skipped. Any
difference fails the build, so a storage or format change must
re-record the baseline it moves. Neither WAKU_BENCH_TOLERANCE nor
WAKU_BENCH_STRICT_ABSOLUTE touches these rows.

The honest-member gate
----------------------
Every campaign in the fresh BENCH_adversarial.json must keep the paper's
promise to honest members, whatever the baseline says: zero
honest_slashes and an honest_delivery_ratio of at least 0.99
(HONEST_DELIVERY_FLOOR). Those verdicts are deterministic, so the gate
holds on any machine.

Override knobs
--------------
  WAKU_BENCH_GUARD=off        skip the guard entirely (exit 0) — for
                              landing a PR that knowingly trades
                              throughput, together with refreshed
                              baselines.
  WAKU_BENCH_TOLERANCE=0.40   widen (or tighten) the allowed regression.
  WAKU_BENCH_STRICT_ABSOLUTE=1  also guard raw msgs/sec numbers.

Only the Python standard library is used.
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def batch_validation_metrics(doc):
    """BENCH_batch_validation.json: [{batch_size, msgs_per_sec, ...}]."""
    if not isinstance(doc, list) or not doc:
        return {}
    by_size = {rec["batch_size"]: rec["msgs_per_sec"] for rec in doc}
    base = by_size.get(1)
    # Guard the batch-64 point: it is measured identically at smoke
    # scale (the smoke pool is exactly 64 messages), whereas the larger
    # batch sizes degenerate to a single short run there — the same
    # scale-sensitivity the sharding extractor excludes 8 shards for.
    guard_size = 64 if 64 in by_size else max(by_size)
    metrics = {"batch_validation.msgs_per_sec.best": by_size[max(by_size)]}
    if base:
        metrics["batch_validation.speedup.batch%d_vs_1" % guard_size] = (
            by_size[guard_size] / base
        )
    return metrics


def sharding_metrics(doc):
    """BENCH_sharding.json: {scale: [{shards, aggregate_msgs_per_sec,
    speedup_vs_unsharded}], flood: {...}}."""
    if not isinstance(doc, dict):
        return {}
    # Guard the 4-shard point only: it is meaningful at smoke scale,
    # whereas the 8-shard point degenerates when the smoke pool leaves
    # just a handful of messages per shard (fixed overhead dominates).
    metrics = {}
    for rec in doc.get("scale", []):
        if rec["shards"] == 4:
            metrics["sharding.speedup.4_shards"] = rec["speedup_vs_unsharded"]
            metrics["sharding.msgs_per_sec.4_shards"] = (
                rec["aggregate_msgs_per_sec"]
            )
    return metrics


def reshard_metrics(doc):
    """BENCH_reshard.json: {campaign: {honest_delivery, throughput_dip,
    ...}}."""
    if not isinstance(doc, dict) or "campaign" not in doc:
        return {}
    campaign = doc["campaign"]
    return {
        "reshard.honest_delivery": campaign.get("honest_delivery"),
        "reshard.throughput_dip": campaign.get("throughput_dip"),
    }


def telemetry_overhead_metrics(doc):
    """BENCH_telemetry_overhead.json: {telemetry_off_msgs_per_sec,
    telemetry_on_msgs_per_sec, telemetry_tracing_msgs_per_sec,
    overhead_on_fraction, overhead_tracing_fraction, ...}."""
    if not isinstance(doc, dict) or "overhead_on_fraction" not in doc:
        return {}
    return {
        # Hard-capped (see HARD_CAPS): telemetry may cost at most 3%
        # throughput, on any machine — the fraction is a same-run ratio,
        # so it ports across machine classes like the speedup metrics.
        "telemetry_overhead.on_fraction": doc.get("overhead_on_fraction"),
        "telemetry_overhead.tracing_fraction": doc.get(
            "overhead_tracing_fraction"
        ),
        "telemetry_overhead.recorder_fraction": doc.get(
            "overhead_recorder_fraction"
        ),
        "telemetry_overhead.msgs_per_sec.off": doc.get(
            "telemetry_off_msgs_per_sec"
        ),
    }


def operator_loop_metrics(doc):
    """BENCH_operator_loop.json: {campaign: {operator_triggered, converged,
    honest_delivery, quota_double_deliveries, ...}}."""
    if not isinstance(doc, dict) or "campaign" not in doc:
        return {}
    campaign = doc["campaign"]
    return {
        # Booleans as 0/1 ratios: a fleet whose operator stops triggering
        # or converging regresses by 100%, far past any tolerance.
        "operator_loop.triggered": float(
            bool(campaign.get("operator_triggered"))
        ),
        "operator_loop.converged": float(bool(campaign.get("converged"))),
        "operator_loop.honest_delivery": campaign.get("honest_delivery"),
        # Hard-capped at 0: a single double-delivery through the
        # operator's own cutover is a broken rate-limit domain.
        "operator_loop.quota_double_deliveries": float(
            campaign.get("quota_double_deliveries", 0)
        ),
    }


def membership_scale_metrics(doc):
    """BENCH_membership_scale.json: {registration: [{members,
    batch_speedup, ...}], delta_checkpoint: {size_ratio, ...}, ...}."""
    if not isinstance(doc, dict) or "registration" not in doc:
        return {}
    metrics = {}
    rows = doc.get("registration", [])
    if rows:
        # Guard the smallest member count: present in both smoke and full
        # runs (the full run adds the 1M point on top), so baseline and CI
        # compare the same measurement. The speedup is a same-run ratio —
        # machine-portable like the other speedup metrics.
        smallest = min(rows, key=lambda rec: rec["members"])
        metrics["membership_scale.batch_speedup.min_members"] = smallest.get(
            "batch_speedup"
        )
        metrics["membership_scale.batch_members_per_sec"] = smallest.get(
            "batch_members_per_sec"
        )
    delta = doc.get("delta_checkpoint")
    if isinstance(delta, dict):
        # Pure size ratio of two serialized artifacts: identical on every
        # machine, so a drop means the wire format itself regressed.
        metrics["membership_scale.delta_size_ratio"] = delta.get("size_ratio")
    return metrics


def propagation_metrics(doc):
    """BENCH_propagation.json: {campaign: {complete_tree_fraction,
    propagation_reachability, ...}, overhead: {tracing_fraction}}."""
    if not isinstance(doc, dict) or "campaign" not in doc:
        return {}
    campaign = doc["campaign"]
    overhead = doc.get("overhead", {})
    return {
        # Virtual-time campaign rollups: deterministic on any machine.
        # The bench binary itself enforces the >= 0.99 acceptance floor;
        # this guard tracks drift against the committed baseline.
        "propagation.complete_tree_fraction": campaign.get(
            "complete_tree_fraction"
        ),
        "propagation.reachability": campaign.get("propagation_reachability"),
        # The redundancy ratio is deliberately NOT guarded: it tracks
        # per-shard mesh density, which differs between the smoke and
        # full configs (8 vs 32 hosts per shard), so smoke-vs-baseline
        # comparison would flag config, not regression.
        # Hard-capped (see HARD_CAPS): full-sampling tracing may cost at
        # most 3% campaign wall-clock — a same-run ratio, so it ports
        # across machine classes.
        "propagation.tracing_fraction": overhead.get("tracing_fraction"),
    }


def parallel_validation_metrics(doc):
    """BENCH_parallel_validation.json: {hardware_threads,
    baseline_msgs_per_sec, scaling: [{workers, msgs_per_sec, speedup,
    parallel_efficiency}], shard_map_memo: {memo_speedup, ...}}."""
    if not isinstance(doc, dict) or "scaling" not in doc:
        return {}
    metrics = {
        "parallel_validation.msgs_per_sec.baseline":
            doc.get("baseline_msgs_per_sec"),
    }
    scaling = doc.get("scaling", [])
    if scaling:
        # Guard parallel_efficiency (speedup divided by the core count
        # actually available, capped at the worker count) at the widest
        # configuration: it is ~1.0 on any machine when the executor
        # scales, whereas raw speedup collapses to ~1.0 on a 1-core CI
        # runner no matter how good the executor is.
        widest = max(scaling, key=lambda rec: rec["workers"])
        metrics["parallel_validation.efficiency.max_workers"] = (
            widest.get("parallel_efficiency")
        )
    memo = doc.get("shard_map_memo")
    if isinstance(memo, dict) and memo.get("memo_speedup") is not None:
        # The memo wins by orders of magnitude when hot (hash lookup vs a
        # recursive trie descent); cap the guarded value so baseline
        # machines with extreme ratios don't demand the same from CI —
        # any value >= the cap means "memo is working".
        metrics["parallel_validation.memo_speedup.capped"] = min(
            10.0, memo["memo_speedup"]
        )
    return metrics


# The honest-member gate on adversarial campaign verdicts (fresh run
# only): who gets penalized must never include an honest member.
HONEST_DELIVERY_FLOOR = 0.99


def adversarial_verdict_failures(doc):
    """BENCH_adversarial.json: {campaigns: [{report: {verdict: {scenario,
    honest_slashes, honest_delivery_ratio, ...}}}]}. Returns the number of
    verdicts checked and the failures."""
    campaigns = doc.get("campaigns") if isinstance(doc, dict) else None
    if not campaigns:
        return 0, ["BENCH_adversarial.json: no campaigns in the fresh run"]
    checked = 0
    failures = []
    for campaign in campaigns:
        verdict = campaign.get("report", {}).get("verdict", {})
        name = verdict.get("scenario", "?")
        slashes = verdict.get("honest_slashes")
        delivery = verdict.get("honest_delivery_ratio")
        checked += 2
        ok = slashes == 0 and (
            delivery is not None and delivery >= HONEST_DELIVERY_FLOOR
        )
        print(
            "  %-44s honest_slashes %s  honest_delivery %s (%s)"
            % ("adversarial." + name, slashes, delivery,
               "ok" if ok else "BROKEN")
        )
        if slashes != 0:
            failures.append(
                "adversarial.%s: honest_slashes %s, must be 0" % (name, slashes)
            )
        if delivery is None or delivery < HONEST_DELIVERY_FLOOR:
            failures.append(
                "adversarial.%s: honest_delivery_ratio %s below %.2f"
                % (name, delivery, HONEST_DELIVERY_FLOOR)
            )
    return checked, failures


# Deterministic fields compared exactly: file -> (row list, fields). Rows
# pair up by "members" (see the module docstring).
EXACT_ROWS = {
    "BENCH_membership_scale.json": (
        "bootstrap",
        ("tree_storage_bytes", "snapshot_bytes", "checkpoint_bytes"),
    ),
    "BENCH_bootstrap.json": ("summary", ("full_tree_storage_bytes",)),
}


def exact_row_failures(name, baseline_doc, fresh_doc):
    """Compares EXACT_ROWS[name] between two documents; returns the number
    of fields compared and the failures."""
    rows_key, fields = EXACT_ROWS[name]

    def by_members(doc):
        rows = doc.get(rows_key, []) if isinstance(doc, dict) else []
        return {row["members"]: row for row in rows if "members" in row}

    baseline_rows = by_members(baseline_doc)
    fresh_rows = by_members(fresh_doc)
    compared = 0
    failures = []
    for members in sorted(set(baseline_rows) & set(fresh_rows)):
        for field in fields:
            base_value = baseline_rows[members].get(field)
            fresh_value = fresh_rows[members].get(field)
            if base_value is None:
                continue
            compared += 1
            ok = fresh_value == base_value
            metric = "%s.%s@%d" % (name, field, members)
            print(
                "  %-60s base %12s  fresh %12s  (%s)"
                % (metric, base_value, fresh_value, "ok" if ok else "CHANGED")
            )
            if not ok:
                failures.append(
                    "%s: %s -> %s (deterministic, compared exactly)"
                    % (metric, base_value, fresh_value)
                )
    if compared == 0:
        print("  %-60s no member count in both runs, skipped" % name)
    return compared, failures


# Gates over a fresh document alone (no baseline comparison).
FRESH_GATES = {
    "BENCH_adversarial.json": adversarial_verdict_failures,
}

# metric-name prefix -> direction; "down" means a larger value is a
# regression (dips), everything else regresses when it drops.
LOWER_IS_BETTER = ("reshard.throughput_dip",)
# Raw-rate metrics compared only under WAKU_BENCH_STRICT_ABSOLUTE=1.
ABSOLUTE_ONLY = (".msgs_per_sec", "members_per_sec")
# Absolute ceilings checked against the FRESH value alone — not against
# the baseline, and not widened by the tolerance. The telemetry-overhead
# fractions carry the ISSUE 7 acceptance bound: instrumentation may cost
# at most 3% throughput.
HARD_CAPS = {
    "telemetry_overhead.on_fraction": 0.03,
    "telemetry_overhead.tracing_fraction": 0.03,
    "telemetry_overhead.recorder_fraction": 0.03,
    "operator_loop.quota_double_deliveries": 0.0,
    # Full-sampling propagation tracing rides the same 3% budget as the
    # rest of the telemetry plane.
    "propagation.tracing_fraction": 0.03,
}

EXTRACTORS = {
    "BENCH_batch_validation.json": batch_validation_metrics,
    "BENCH_sharding.json": sharding_metrics,
    "BENCH_reshard.json": reshard_metrics,
    "BENCH_parallel_validation.json": parallel_validation_metrics,
    "BENCH_telemetry_overhead.json": telemetry_overhead_metrics,
    "BENCH_operator_loop.json": operator_loop_metrics,
    "BENCH_propagation.json": propagation_metrics,
    "BENCH_membership_scale.json": membership_scale_metrics,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh_dir", help="directory with fresh BENCH_*.json")
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(os.path.dirname(__file__), ".."),
        help="directory with committed baselines (default: repo root)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("WAKU_BENCH_TOLERANCE", "0.25")),
        help="allowed fractional regression (default 0.25)",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="BENCH_x.json",
        help="guard only these bench files (repeatable) — for CI lanes "
        "that run a single bench instead of the full smoke sweep",
    )
    args = parser.parse_args()

    if os.environ.get("WAKU_BENCH_GUARD", "").lower() in ("off", "0", "skip"):
        print("bench regression guard: WAKU_BENCH_GUARD=off, skipping")
        return 0

    strict_absolute = os.environ.get("WAKU_BENCH_STRICT_ABSOLUTE") == "1"
    failures = []
    compared = 0
    for name, extract in sorted(EXTRACTORS.items()):
        if args.only and name not in args.only:
            continue
        baseline_doc = load(os.path.join(args.baseline_dir, name))
        fresh_doc = load(os.path.join(args.fresh_dir, name))
        if baseline_doc is None:
            print("  %-34s no committed baseline, skipped" % name)
            continue
        if fresh_doc is None:
            failures.append("%s: fresh run produced no JSON" % name)
            continue
        # A per-core figure (parallel_efficiency) compares only between
        # runs on the same core count: a baseline from another machine
        # class fails the guard instead of passing or failing by chance.
        fresh_threads, base_threads = (
            doc.get("hardware_threads") if isinstance(doc, dict) else None
            for doc in (fresh_doc, baseline_doc)
        )
        if fresh_threads != base_threads:
            print(
                "  %-44s run %s  baseline %s (MISMATCH)"
                % (name + " hardware_threads", fresh_threads, base_threads)
            )
            failures.append(
                "%s: the run has hardware_threads %s but the baseline has "
                "%s; re-record the baseline on a machine with %s threads"
                % (name, fresh_threads, base_threads, fresh_threads)
            )
        baseline = extract(baseline_doc)
        fresh = extract(fresh_doc)
        for metric, base_value in sorted(baseline.items()):
            if base_value is None or metric not in fresh:
                continue
            if not strict_absolute and any(
                tag in metric for tag in ABSOLUTE_ONLY
            ):
                continue
            fresh_value = fresh[metric]
            compared += 1
            if metric in HARD_CAPS:
                cap = HARD_CAPS[metric]
                regressed = fresh_value > cap
                verdict = "cap %.3f" % cap
                status = "OVER CAP" if regressed else "ok"
                print(
                    "  %-44s base %10.3f  fresh %10.3f  %s (%s)"
                    % (metric, base_value, fresh_value, verdict, status)
                )
                if regressed:
                    failures.append(
                        "%s: %.4f exceeds the %.2f hard cap"
                        % (metric, fresh_value, cap)
                    )
                continue
            if metric.startswith(LOWER_IS_BETTER):
                # A dip may grow by the tolerance in absolute terms
                # (dips near 0 make relative comparison meaningless).
                regressed = fresh_value > base_value + args.tolerance
                delta = fresh_value - base_value
                verdict = "+%.3f dip" % delta
            else:
                floor = base_value * (1.0 - args.tolerance)
                regressed = fresh_value < floor
                delta = (
                    (fresh_value - base_value) / base_value
                    if base_value
                    else 0.0
                )
                verdict = "%+.1f%%" % (100.0 * delta)
            status = "REGRESSED" if regressed else "ok"
            print(
                "  %-44s base %10.3f  fresh %10.3f  %s (%s)"
                % (metric, base_value, fresh_value, verdict, status)
            )
            if regressed:
                failures.append(
                    "%s: %.3f -> %.3f (allowed %.0f%%)"
                    % (metric, base_value, fresh_value, 100 * args.tolerance)
                )

    for name in sorted(EXACT_ROWS):
        if args.only and name not in args.only:
            continue
        baseline_doc = load(os.path.join(args.baseline_dir, name))
        fresh_doc = load(os.path.join(args.fresh_dir, name))
        if baseline_doc is None:
            print("  %-34s no committed baseline, skipped" % name)
            continue
        if fresh_doc is None:
            missing = "%s: fresh run produced no JSON" % name
            if missing not in failures:  # an extractor may have said so
                failures.append(missing)
            continue
        checked, exact_failures = exact_row_failures(
            name, baseline_doc, fresh_doc
        )
        compared += checked
        failures.extend(exact_failures)

    for name, gate in sorted(FRESH_GATES.items()):
        if args.only and name not in args.only:
            continue
        fresh_doc = load(os.path.join(args.fresh_dir, name))
        if fresh_doc is None:
            failures.append("%s: fresh run produced no JSON" % name)
            continue
        checked, gate_failures = gate(fresh_doc)
        compared += checked
        failures.extend(gate_failures)

    if compared == 0:
        failures.append("no metrics compared — wrong directories?")
    if failures:
        print("\nbench regression guard FAILED:")
        for failure in failures:
            print("  * " + failure)
        print(
            "(intentional trade-off? refresh the committed BENCH_*.json "
            "baselines, or set WAKU_BENCH_GUARD=off / raise "
            "WAKU_BENCH_TOLERANCE)"
        )
        return 1
    print("bench regression guard passed (%d metrics)" % compared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
