#!/usr/bin/env python3
"""Compare two sets of critical-path benchmark runs.

    compare.py A.json... -- B.json...

Each argument is a per-run JSON document written by the benchmark
(run.sh puts them in build-critical-path/results/). Set A is the
reference (the parent commit), set B the candidate. For every
(metric, workload) pair the script prints each set's median and
quartiles and flags the pair:

  regressed   B's median is worse than A's by more than the metric's
              bound in BENCHMARK.json;
  unresolved  the spread within a set (interquartile range over median)
              exceeds that bound, so the sets cannot be told apart.

Per-layer metrics carry no bound and are printed for reference only.
Exits 1 when any pair is regressed or unresolved, or a run was incorrect.
Standard library only.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(paths):
    """{(workload, metric): [values]}, {metric: unit}, incorrect run count."""
    values, units, incorrect = {}, {}, 0
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if not doc.get("correct", False):
            print(f"warning: {path} is an incorrect run", file=sys.stderr)
            incorrect += 1
        for name, metric in doc["metrics"].items():
            values.setdefault((doc["workload"], name), []).append(metric["value"])
            units[name] = metric["unit"]
    return values, units, incorrect


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread(med, q1, q3):
    return (q3 - q1) / abs(med) if med else 0.0


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    set_a, set_b = argv[:split], argv[split + 1:]
    if not set_a or not set_b:
        print("compare.py: both sets need at least one document", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

    a_vals, units, bad_a = load(set_a)
    b_vals, units_b, bad_b = load(set_b)
    units.update(units_b)
    flagged = bad_a + bad_b

    header = (f"{'workload':<18} {'metric':<36} {'unit':<10} "
              f"{'A median [q1, q3]':>34} {'B median [q1, q3]':>34} {'change':>8}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(a_vals) | set(b_vals)):
        workload, name = key
        if key not in a_vals or key not in b_vals:
            print(f"{workload:<18} {name:<36} missing from one set")
            flagged += 1
            continue
        a, b = summary(a_vals[key]), summary(b_vals[key])
        change = (b[0] - a[0]) / abs(a[0]) if a[0] else 0.0
        verdict = "-"
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = -change if better[name] == "higher" else change
            if spread(*a) > bound or spread(*b) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            flagged += verdict != "ok"
        cell = lambda s: f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}]"  # noqa: E731
        print(f"{workload:<18} {name:<36} {units[name]:<10} {cell(a):>34} "
              f"{cell(b):>34} {change:>+7.1%}  {verdict}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
