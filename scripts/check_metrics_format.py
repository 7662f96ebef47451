#!/usr/bin/env python3
"""Prometheus exposition linter for the in-node telemetry.

Usage:
    ./build/example_metrics_dump | scripts/check_metrics_format.py
    scripts/check_metrics_format.py metrics.txt
    ./build/example_metrics_dump --json | scripts/check_metrics_format.py --json
    ./build/example_metrics_dump --fleet | scripts/check_metrics_format.py --json
    ./build/example_metrics_dump --postmortem | \\
        scripts/check_metrics_format.py --json
    ./build/example_metrics_dump --traces | scripts/check_metrics_format.py --json

Validates the text format WakuRlnRelayNode::metrics_text() emits
(src/obs/telemetry.cpp PrometheusWriter + registry exposition):

  * every sample line parses as `name{labels} value`;
  * metric and label names are legal Prometheus identifiers;
  * every family has exactly one # HELP and one # TYPE, BEFORE its
    samples, and no family is declared twice (duplicate detection —
    the ad-hoc snapshot section and the registry section must stay
    disjoint);
  * samples appear only under a declared family, and histogram series
    use only the _bucket/_sum/_count suffixes;
  * counter families end in _total (or are histogram components);
  * histogram bucket `le` values are sorted and cumulative counts are
    monotone, closing with le="+Inf" == _count, per labelset;
  * every histogram labelset carries a _sum series (dashboards compute
    rates from _sum/_count; a bucket-only family breaks them);
  * values parse as numbers (integers or %g floats).

With --json the input is instead one of the structured dumps — a
metrics_json() object, a fleet timeline array (FleetAggregator
timeline_json / the verdict's fleet_timeline), a flight-recorder
postmortem, a trace dump (TraceCollector::to_json), a propagation summary (the verdict/campaign "propagation"
embed), or a Chrome trace-event export — recognized by shape and
checked structurally (required keys, ratio ranges, ring/tree
accounting).

Only the Python standard library is used (CI runs it with no venv).
"""

import json
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$")

HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def family_of(sample_name, types):
    """The declared family a sample line belongs to."""
    if sample_name in types:
        return sample_name
    for suffix in HISTOGRAM_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return None


def parse_value(raw):
    if raw == "+Inf":
        return float("inf")
    return float(raw)


def check_fleet_timeline(rows, errors, where="fleet timeline"):
    """One FleetEpochSeries row per epoch, ratios in range, epochs
    ascending."""
    required = (
        "epoch", "nodes_reporting", "honest_delivery_ratio",
        "containment_ratio", "p95_spread_ms", "total_log_entries",
    )
    prev_epoch = None
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append("%s row %d: not an object" % (where, i))
            continue
        for key in required:
            if key not in row:
                errors.append("%s row %d: missing %s" % (where, i, key))
        for ratio in ("honest_delivery_ratio", "containment_ratio"):
            value = row.get(ratio)
            if value is not None and not 0.0 <= value <= 1.0:
                errors.append(
                    "%s row %d: %s=%r out of [0,1]" % (where, i, ratio, value)
                )
        epoch = row.get("epoch")
        if prev_epoch is not None and epoch is not None and epoch <= prev_epoch:
            errors.append("%s row %d: epochs not ascending" % (where, i))
        prev_epoch = epoch


def check_postmortem(doc, errors):
    """FlightRecorder::postmortem_json: ring accounting must be coherent."""
    for key in ("reason", "recorded", "evicted", "events"):
        if key not in doc:
            errors.append("postmortem: missing %s" % key)
    events = doc.get("events", [])
    if not isinstance(events, list):
        errors.append("postmortem: events is not an array")
        events = []
    recorded = doc.get("recorded", 0)
    evicted = doc.get("evicted", 0)
    if recorded - evicted != len(events):
        errors.append(
            "postmortem: recorded %r - evicted %r != %d ring events"
            % (recorded, evicted, len(events))
        )
    for i, ev in enumerate(events):
        for key in ("at_ns", "epoch", "kind", "detail"):
            if not isinstance(ev, dict) or key not in ev:
                errors.append("postmortem event %d: missing %s" % (i, key))


def check_trace_dump(doc, errors):
    """TraceCollector::to_json: keyed spans whose event times never go
    backwards, and ring accounting that balances against the stats."""
    stats = doc.get("stats")
    if not isinstance(stats, dict):
        errors.append("trace dump: stats is not an object")
        stats = {}
    for key in ("sampled", "finished", "evicted", "truncated", "open"):
        if not isinstance(stats.get(key), int) or stats[key] < 0:
            errors.append("trace dump: stats.%s missing or negative" % key)
    for ring in ("completed", "slowest"):
        spans = doc.get(ring)
        if not isinstance(spans, list):
            errors.append("trace dump: %s is not an array" % ring)
            continue
        for i, span in enumerate(spans):
            where = "trace dump %s[%d]" % (ring, i)
            if not isinstance(span, dict):
                errors.append("%s: not an object" % where)
                continue
            for key in ("key", "start_ns", "end_ns", "duration_ns",
                        "outcome", "events"):
                if key not in span:
                    errors.append("%s: missing %s" % (where, key))
            if not re.match(r"^[0-9a-f]{16}$", str(span.get("key", ""))):
                errors.append("%s: key %r is not 16 hex digits"
                              % (where, span.get("key")))
            start, end = span.get("start_ns", 0), span.get("end_ns", 0)
            if end < start or span.get("duration_ns") != end - start:
                errors.append("%s: start/end/duration inconsistent" % where)
            prev = start
            for j, ev in enumerate(span.get("events") or []):
                if not isinstance(ev, dict) or not all(
                        k in ev for k in ("at_ns", "stage", "detail")):
                    errors.append("%s event %d: missing at_ns/stage/detail"
                                  % (where, j))
                    continue
                if ev["at_ns"] < prev:
                    errors.append("%s event %d: at_ns goes backwards"
                                  % (where, j))
                prev = ev["at_ns"]
    completed = doc.get("completed")
    if isinstance(completed, list) and all(
            isinstance(stats.get(k), int)
            for k in ("finished", "truncated", "evicted")):
        closed = stats["finished"] + stats["truncated"]
        if len(completed) != closed - stats["evicted"]:
            errors.append(
                "trace dump: %d completed spans != finished + truncated - "
                "evicted (%d)" % (len(completed), closed - stats["evicted"]))
    slowest = doc.get("slowest")
    if isinstance(slowest, list):
        durations = [s.get("duration_ns", 0) for s in slowest
                     if isinstance(s, dict)]
        if durations != sorted(durations, reverse=True):
            errors.append("trace dump: slowest ring is not worst-first")


def check_propagation_summary(doc, errors):
    """PropagationSummary::to_json (the campaign/verdict "propagation"
    embed): tree accounting must balance and ratios stay in range."""
    required = (
        "trees", "complete_trees", "incomplete_trees", "rejected_trees",
        "adversary_trees", "propagation_p50_ns", "propagation_p95_ns",
        "propagation_p99_ns", "redundancy_ratio", "reachability",
        "hop_histogram",
    )
    for key in required:
        if key not in doc:
            errors.append("propagation summary: missing %s" % key)
    parts = (
        doc.get("complete_trees", 0) + doc.get("incomplete_trees", 0)
        + doc.get("rejected_trees", 0) + doc.get("adversary_trees", 0)
    )
    if doc.get("trees") is not None and doc["trees"] != parts:
        errors.append(
            "propagation summary: trees %r != complete+incomplete+"
            "rejected+adversary %d" % (doc["trees"], parts)
        )
    reach = doc.get("reachability")
    if reach is not None and not 0.0 <= reach <= 1.0:
        errors.append(
            "propagation summary: reachability %r out of [0,1]" % reach
        )
    if not isinstance(doc.get("hop_histogram", []), list):
        errors.append("propagation summary: hop_histogram is not an array")
    p50, p95, p99 = (
        doc.get("propagation_p50_ns"), doc.get("propagation_p95_ns"),
        doc.get("propagation_p99_ns"),
    )
    if None not in (p50, p95, p99) and not p50 <= p95 <= p99:
        errors.append("propagation summary: quantiles not monotone")


def check_chrome_trace(doc, errors):
    """PropagationAssembler::chrome_trace_json: loadable by
    chrome://tracing / Perfetto — traceEvents with legal phases, spans
    carrying ts/dur/pid."""
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        errors.append("chrome trace: traceEvents is not an array")
        return
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append("chrome trace event %d: not an object" % i)
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            errors.append("chrome trace event %d: unexpected ph %r" % (i, ph))
            continue
        required = ("name", "pid") if ph == "M" else (
            "name", "pid", "tid", "ts", "dur"
        )
        for key in required:
            if key not in ev:
                errors.append(
                    "chrome trace event %d (%s): missing %s" % (i, ph, key)
                )
        if ph == "X" and ev.get("dur", 0) < 0:
            errors.append("chrome trace event %d: negative dur" % i)


def check_membership_scale(doc, errors):
    """BENCH_membership_scale.json (bench/bench_membership_scale.cpp):
    sections present, member counts ascending, ratios coherent."""
    for key in ("config", "registration", "witness", "bootstrap",
                "delta_checkpoint"):
        if key not in doc:
            errors.append("membership scale: missing section %s" % key)
    for section in ("registration", "witness", "bootstrap"):
        rows = doc.get(section, [])
        if not isinstance(rows, list) or not rows:
            errors.append(
                "membership scale: %s is not a non-empty array" % section
            )
            continue
        prev = None
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or "members" not in row:
                errors.append(
                    "membership scale: %s row %d missing members"
                    % (section, i)
                )
                continue
            if prev is not None and row["members"] <= prev:
                errors.append(
                    "membership scale: %s member counts not ascending"
                    % section
                )
            prev = row["members"]
    for i, row in enumerate(doc.get("registration", [])):
        speedup = row.get("batch_speedup") if isinstance(row, dict) else None
        if speedup is None or speedup <= 0:
            errors.append(
                "membership scale: registration row %d has no positive "
                "batch_speedup" % i
            )
    delta = doc.get("delta_checkpoint", {})
    if isinstance(delta, dict):
        for key in ("full_bytes", "delta_bytes", "size_ratio"):
            if key not in delta:
                errors.append("membership scale: delta_checkpoint missing %s"
                              % key)
        full = delta.get("full_bytes")
        small = delta.get("delta_bytes")
        ratio = delta.get("size_ratio")
        if None not in (full, small, ratio) and small:
            if abs(ratio - full / small) > 0.05 * ratio:
                errors.append(
                    "membership scale: size_ratio %r inconsistent with "
                    "full_bytes/delta_bytes %r/%r" % (ratio, full, small)
                )
    else:
        errors.append("membership scale: delta_checkpoint is not an object")


def check_metrics_json(doc, errors):
    """WakuRlnRelayNode::metrics_json: every section present, the embedded
    self-fleet timeline well-formed."""
    for key in ("node", "pipeline", "operator", "fleet", "registry"):
        if key not in doc:
            errors.append("metrics_json: missing section %s" % key)
    operator = doc.get("operator", {})
    for key in ("decisions", "flight_recorded", "anomalies_fired"):
        if key not in operator:
            errors.append("metrics_json: operator section missing %s" % key)
    fleet = doc.get("fleet", [])
    if not isinstance(fleet, list):
        errors.append("metrics_json: fleet is not a timeline array")
    else:
        check_fleet_timeline(fleet, errors, where="metrics_json fleet")


def json_main(argv):
    if argv:
        with open(argv[0], "r", encoding="utf-8") as f:
            raw = f.read()
    else:
        raw = sys.stdin.read()
    errors = []
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        print("metrics json check FAILED:\n  * not valid JSON: %s" % exc)
        return 1

    if isinstance(doc, list):
        shape = "fleet timeline (%d rows)" % len(doc)
        check_fleet_timeline(doc, errors)
    elif isinstance(doc, dict) and "events" in doc:
        shape = "postmortem (%d events)" % len(doc.get("events") or [])
        check_postmortem(doc, errors)
    elif isinstance(doc, dict) and "completed" in doc and "slowest" in doc:
        shape = "trace dump (%d completed spans)" % len(
            doc.get("completed") or []
        )
        check_trace_dump(doc, errors)
    elif isinstance(doc, dict) and "registry" in doc:
        shape = "metrics_json (%d sections)" % len(doc)
        check_metrics_json(doc, errors)
    elif isinstance(doc, dict) and "traceEvents" in doc:
        shape = "chrome trace (%d events)" % len(doc.get("traceEvents") or [])
        check_chrome_trace(doc, errors)
    elif isinstance(doc, dict) and "hop_histogram" in doc:
        shape = "propagation summary (%d trees)" % doc.get("trees", 0)
        check_propagation_summary(doc, errors)
    elif isinstance(doc, dict) and "delta_checkpoint" in doc:
        shape = "membership scale bench (%d sizes)" % len(
            doc.get("registration") or []
        )
        check_membership_scale(doc, errors)
    else:
        errors.append("unrecognized JSON shape (not a timeline, "
                      "postmortem, trace dump, metrics_json, chrome trace, "
                      "propagation summary, or membership scale dump)")
        shape = "?"

    if errors:
        print("metrics json check FAILED:")
        for e in errors:
            print("  * " + e)
        return 1
    print("metrics json check passed: %s" % shape)
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "--json":
        return json_main(argv[1:])
    if argv:
        with open(argv[0], "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()

    errors = []
    helps = {}
    types = {}
    samples_seen = 0
    # (family, labels-without-le) -> list of (le, cumulative) in order.
    buckets = {}
    # (family, labels) that emitted a _sum series.
    sums = set()
    # (family+suffix, labels) duplicates.
    seen_series = set()

    for lineno, line in enumerate(lines, 1):
        def err(msg):
            errors.append("line %d: %s (%r)" % (lineno, msg, line[:120]))

        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3]:
                err("HELP without text")
                continue
            name = parts[2]
            if not NAME_RE.match(name):
                err("illegal family name in HELP")
            if name in helps:
                err("duplicate # HELP for family " + name)
            helps[name] = parts[3]
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                err("malformed TYPE line")
                continue
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram"):
                err("unknown metric type " + kind)
            if name in types:
                err("duplicate # TYPE for family " + name)
            if name not in helps:
                err("TYPE before HELP for family " + name)
            types[name] = kind
            continue
        if line.startswith("#"):
            err("unrecognized comment line")
            continue

        m = SAMPLE_RE.match(line)
        if not m:
            err("unparsable sample line")
            continue
        sample_name, _, label_blob, raw_value = m.groups()
        samples_seen += 1

        family = family_of(sample_name, types)
        if family is None:
            err("sample for undeclared family " + sample_name)
            continue
        kind = types[family]
        if kind == "counter" and not family.endswith("_total"):
            err("counter family missing _total suffix: " + family)
        if kind == "histogram" and sample_name == family:
            err("bare sample for histogram family " + family)
        if kind != "histogram" and sample_name != family:
            err("suffixed sample for non-histogram family " + family)

        labels = {}
        if label_blob:
            consumed = LABEL_RE.sub("", label_blob).replace(",", "").strip()
            if consumed:
                err("malformed label blob")
                continue
            for lm in LABEL_RE.finditer(label_blob):
                key, value = lm.group(1), lm.group(2)
                if key in labels:
                    err("duplicate label " + key)
                labels[key] = value

        try:
            value = parse_value(raw_value)
        except ValueError:
            err("unparsable value " + raw_value)
            continue
        if kind in ("counter", "histogram") and value < 0:
            err("negative value in monotone family")

        series_key = (sample_name, tuple(sorted(labels.items())))
        if series_key in seen_series:
            err("duplicate series " + sample_name + str(sorted(labels.items())))
        seen_series.add(series_key)

        if kind == "histogram" and sample_name.endswith("_bucket"):
            if "le" not in labels:
                err("_bucket sample without le label")
                continue
            le = parse_value(labels["le"])
            rest = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            ))
            buckets.setdefault((family, rest), []).append((lineno, le, value))
        elif kind == "histogram" and sample_name.endswith("_count"):
            rest = tuple(sorted(labels.items()))
            buckets.setdefault((family, rest), []).append(
                (lineno, None, value)
            )
        elif kind == "histogram" and sample_name.endswith("_sum"):
            sums.add((family, tuple(sorted(labels.items()))))

    # Histogram structure: per labelset, le ascending, counts monotone,
    # +Inf present and equal to _count.
    for (family, rest), entries in sorted(buckets.items()):
        les = [(le, v) for (_, le, v) in entries if le is not None]
        counts = [v for (_, le, v) in entries if le is None]
        where = "%s{%s}" % (family, ",".join("%s=%s" % kv for kv in rest))
        if not les:
            errors.append("histogram %s has _count but no buckets" % where)
            continue
        for i in range(1, len(les)):
            if les[i][0] <= les[i - 1][0]:
                errors.append("histogram %s: le not ascending" % where)
            if les[i][1] < les[i - 1][1]:
                errors.append("histogram %s: cumulative count drops" % where)
        if les[-1][0] != float("inf"):
            errors.append("histogram %s: missing le=\"+Inf\"" % where)
        if counts and les[-1][1] != counts[0]:
            errors.append(
                "histogram %s: +Inf bucket %.0f != _count %.0f"
                % (where, les[-1][1], counts[0])
            )
        if (family, rest) not in sums:
            errors.append("histogram %s: missing _sum series" % where)

    for name in types:
        if name not in helps:
            errors.append("family %s has TYPE but no HELP" % name)

    if samples_seen == 0:
        errors.append("no samples found — empty exposition?")

    if errors:
        print("metrics format check FAILED:")
        for e in errors:
            print("  * " + e)
        return 1
    print(
        "metrics format check passed: %d families, %d samples"
        % (len(types), samples_seen)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
