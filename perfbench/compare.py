"""``python3 perfbench/compare.py BASE.jsonl NEW.jsonl``

Compares two result files written by ``run.py --out`` (one JSON line
per run; runs of several seeds and workloads may share a file).  For
each workload and metric it prints both medians with their quartiles,
the ratio NEW/BASE, and a verdict against ``BENCHMARK.json``:

* ``worse``      — NEW's median is worse than BASE's by more than the
  metric's bound (per-layer metrics, which have no bound: by more than
  the wider of the two spreads, with the quartile ranges apart);
* ``better``     — NEW's median is better by more than the wider of the
  two spreads (quartile distance over median), and the quartile ranges
  do not overlap;
* ``unresolved`` — anything else: within the bound, within noise, or
  fewer than three runs a side.

Count metrics are exact: any change in a count is better or worse.

Runs whose result says ``correct: false`` are left out, and the number
left out is printed per file and workload; a workload with no correct
run on one side is ``invalid`` as a whole.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_runs(path: str):
    """From one result file: ``{(workload, trace): {metric: [values]}}``
    over the correct runs, and ``{(workload, trace): n}`` counting the
    incorrect runs left out."""
    runs, dropped = {}, {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            key = (run["workload"], run["trace"])
            group = runs.setdefault(key, {})
            if not run["correct"]:
                dropped[key] = dropped.get(key, 0) + 1
                continue
            for name, metric in run["metrics"].items():
                group.setdefault(name, []).append(metric["value"])
    return runs, dropped


def summary(values):
    """(q1, median, q3) of *values*."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q1, q2, q3) -> float:
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base, new, info: dict) -> str:
    """``better``, ``worse`` or ``unresolved`` (see module docstring).

    *base* and *new* are the two value lists; *info* is the metric's
    ``BENCHMARK.json`` entry.  Counts are exact, so any change in them
    is resolved; a time without a bound needs three runs a side before
    its quartiles say anything.
    """
    b1, b2, b3 = summary(base)
    n1, n2, n3 = summary(new)
    higher = info.get("better", "lower") == "higher"
    if info.get("unit") == "count":
        if n2 == b2:
            return "unresolved"
        return "better" if (n2 > b2) == higher else "worse"
    if not b2:
        return "unresolved"
    gain = (n2 - b2) / abs(b2) * (1.0 if higher else -1.0)
    bound = info.get("bound")
    if gain < 0 and bound is not None:
        return "worse" if -gain > bound else "unresolved"
    if min(len(base), len(new)) < 3:
        return "unresolved"
    noise = max(spread(b1, b2, b3), spread(n1, n2, n3))
    apart = n1 > b3 if (gain > 0) == higher else n3 < b1
    if gain < 0:
        return "worse" if -gain > noise and apart else "unresolved"
    return "better" if gain > noise and apart else "unresolved"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, base_dropped = load_runs(argv[0])
    new, new_dropped = load_runs(argv[1])
    for side, dropped in (("base", base_dropped), ("new", new_dropped)):
        for (workload, trace), n in sorted(dropped.items()):
            print(f"{side}: left out {n} incorrect {workload} run(s) "
                  f"(trace {trace})")
    print(f"{'workload':<10} {'metric':<28} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'ratio':>7}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if not base[key] or not new[key]:
            label = f"(trace {trace} metrics)"
            print(f"{workload:<10} {label:<28} invalid: no correct run "
                  f"on one side")
            continue
        for name in sorted(set(base[key]) & set(new[key])):
            info = metrics.get(name, {})
            b = summary(base[key][name])
            n = summary(new[key][name])
            ratio = n[1] / b[1] if b[1] else float("nan")
            word = verdict(base[key][name], new[key][name], info)
            print(f"{workload:<10} {name:<28} "
                  f"{b[1]:<11.5g} [{b[0]:.5g}, {b[2]:.5g}]".ljust(75)
                  + f" {n[1]:<11.5g} [{n[0]:.5g}, {n[2]:.5g}]".ljust(35)
                  + f" {ratio:7.3f}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
