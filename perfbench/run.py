"""The repository benchmark: ``python3 perfbench/run.py``.

    python3 perfbench/run.py --workload tm-sweep --seed 1 --seconds 20 \\
        --trace 0 [--out results.jsonl]

Workloads (see ``perfbench/README.md`` for why each exists):

* ``tm-sweep``  — the 48-cell template-matching grid, inline
  (compile-bound);
* ``piv-sweep`` — the 40-cell PIV grid on the c1060 and the c2070,
  process pool of 2 (engine-bound, 9 infeasible cells);
* ``tm-serve``  — 200 template-matching requests from two closed-loop
  TCP clients to ``python -m repro.serve --workers 1`` (cold and warm).

Each pass runs in a fresh interpreter (``one_pass.py``).  With
``--trace 0`` the command repeats untraced passes until ``--seconds``
have gone by (at least :data:`MIN_PASSES`), takes set-up samples until
it has :data:`MIN_SETUPS`, and reports medians of the end-to-end
metrics.  End-to-end times are reported at one reference speed: the
host's cores change speed by tens of percent for seconds to minutes at
a time, so every cell, request and set-up is scaled by how long a
fixed speed probe took on the same thread next to it (see
:func:`speed_factors`).  With ``--trace 1`` it runs one untraced
pass and two traced ones, prints the per-layer table, checks that the
exact counts repeat across the two traced passes, and reports the
per-layer metrics (measured times, not scaled).

Every pass checks its outputs against the committed tables in
``perfbench/expected/``; a mismatch makes the result ``correct: false``
and the exit code 1.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import ledger  # noqa: E402
import workloads as W  # noqa: E402

MIN_PASSES = 2
MIN_SETUPS = 5
#: Never start a pass that could run past this much of the run.
RUN_BUDGET_S = 150.0
PASS_TIMEOUT_S = 150.0
#: A traced table must account for this share of the traced wall.
MIN_COVERAGE = 0.95
#: The reference speed: the speed at which :func:`ledger.probe` takes
#: this long.  A time measured while the probe took ``p`` seconds is
#: reported as ``time * REF_PROBE_S / p``.
REF_PROBE_S = 0.002
#: Probes in the rolling median that gives each op its speed.
PROBE_WINDOW = 9

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
#: Metric name -> unit, as ``BENCHMARK.json`` declares them: the
#: end-to-end metrics (``--trace 0``) and the per-layer ones
#: (``--trace 1``), every workload.
E2E = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
#: Counts repeat exactly between two traced passes with the same seed.
EXACT_COUNTS = [name for name, unit in PER_LAYER.items()
                if unit == "count"]
#: Outermost spans: their self time is time inside a cell or request
#: that no deeper layer's span covers.
OUTER_SPANS = ("tuning.cell", "apps.request")
#: Table rows that are remainders of the wall, not spans.
REMAINDERS = ("tuning.pool", "serve.outside_worker")


class PassError(RuntimeError):
    """A pass crashed, hung or printed no result."""


def _env() -> dict:
    env = os.environ.copy()
    path = [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def spawn_pass(workload: str, seed: int, mode: str):
    """Run one pass; returns (setup seconds, the probe taken after
    set-up, result dict or None)."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    start = time.perf_counter()
    # Its own process group, so whatever the pass leaves behind (a
    # serve daemon or worker, a pool child) can be found and stopped.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=_env(), start_new_session=True)
    setup = speed = result = None
    deadline = time.monotonic() + PASS_TIMEOUT_S
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise PassError(f"{workload} {mode} pass timed out")
            readable, _, _ = select.select([proc.stdout], [], [], left)
            if not readable:
                continue
            line = proc.stdout.readline().decode()
            if not line:
                break
            if line.startswith("PERFBENCH-READY"):
                setup = time.perf_counter() - start
            elif line.startswith("PERFBENCH-PROBE "):
                speed = float(line.split()[1])
            elif line.startswith("PERFBENCH-RESULT "):
                result = json.loads(line.split(" ", 1)[1])
        code = proc.wait(max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        stop_group(proc.pid)
    if (code != 0 or setup is None or speed is None
            or (mode != "setup" and result is None)):
        raise PassError(f"{workload} {mode} pass failed (exit {code})")
    return setup, speed, result


def stop_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill what is left of a finished pass's process group, and wait
    (bounded) until the group is empty."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return
    print(f"perfbench: stopping processes a {pgid} pass left behind",
          file=sys.stderr)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# -- statistics ---------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Inclusive-method percentile *q* (0-100) of *values*."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed_factors(ops):
    """``REF_PROBE_S`` over the speed probe of each op's thread.

    Each op (a timed sweep cell or served request) carries the probe its
    process took just before it.  One probe is a few milliseconds and
    noisy, so an op's speed is the median of the :data:`PROBE_WINDOW`
    probes nearest to it in its own process (pool children ran on their
    own cores).
    """
    by_pid = {}
    for i, op in enumerate(ops):
        by_pid.setdefault(op.get("pid"), []).append(i)
    factors = [1.0] * len(ops)
    half = PROBE_WINDOW // 2
    for members in by_pid.values():
        members.sort(key=lambda i: ops[i]["start"])
        probes = [ops[i]["probe"] for i in members]
        for k, i in enumerate(members):
            window = probes[max(0, k - half):k + half + 1]
            factors[i] = REF_PROBE_S / statistics.median(window)
    return factors


def at_reference(workload: str, result: dict):
    """One pass at the reference speed: (wall, per-op latencies).

    An op's latency (a cell's wall, a request's round trip) is scaled by
    its own speed factor; the pass wall by the factors' average weighted
    by the work each op did (its wall, or the worker's time on it).
    """
    if workload == "tm-serve":
        ops = result["ops"]
        latency = [op["rtt"] for op in ops]
        work = [op["worker_s"] for op in ops]
    else:
        ops = result["cells"]
        latency = work = [c["wall"] for c in ops]
    if not ops:  # every op failed; the correctness gate reports it
        return result["wall"], []
    factors = speed_factors(ops)
    wall_factor = sum(w * f for w, f in zip(work, factors)) / sum(work)
    return (result["wall"] * wall_factor,
            [x * f for x, f in zip(latency, factors)])


# -- end-to-end ---------------------------------------------------------

def run_e2e(workload: str, seed: int, seconds: float):
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = len(passes) >= MIN_PASSES and elapsed >= seconds
        per_pass = elapsed / len(passes) if passes else 0.0
        if enough or (passes and elapsed + per_pass > RUN_BUDGET_S):
            break
        setup, speed, result = spawn_pass(workload, seed, "plain")
        passes.append(result)
        setups.append(setup * REF_PROBE_S / speed)
    while len(setups) < MIN_SETUPS:
        setup, speed, _ = spawn_pass(workload, seed, "setup")
        setups.append(setup * REF_PROBE_S / speed)
    scaled = [at_reference(workload, r) for r in passes]
    ops = [x for _, latencies in scaled for x in latencies]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median([wall for wall, _ in scaled]),
        "op_p50_s": median(ops),
        "op_p95_s": percentile(ops, 95),
        # The serve worker's peak moves with the order in which the two
        # clients' requests happen to reach it; the run's peak is the
        # highest of its passes.
        "peak_rss_mb": max(r["rss_mb"] for r in passes),
    }
    print_e2e(workload, passes, scaled, metrics, len(setups))
    return passes, metrics


def print_e2e(workload, passes, scaled, metrics, n_setups) -> None:
    """The end-to-end table, under the workload's own metric names."""
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    n_ops = sum(len(latencies) for _, latencies in scaled)
    rows = [("setup_s", metrics["setup_s"], "s",
             f"median of {n_setups} set-ups")]
    if workload == "tm-serve":
        ops = [(op, x) for r, (_, latencies) in zip(passes, scaled)
               for op, x in zip(r["ops"], latencies)]
        rows += [
            ("requests_per_s", median([len(r["ops"]) / wall
                                       for r, (wall, _) in
                                       zip(passes, scaled)]), "req/s",
             f"median of {len(passes)} streams"),
            ("req_p50_s", metrics["op_p50_s"], "s", f"{n_ops} requests"),
            ("req_p95_s", metrics["op_p95_s"], "s", f"{n_ops} requests"),
            ("cold_req_p50_s", median([x for o, x in ops if o["cold"]]),
             "s", f"{sum(o['cold'] for o, _ in ops)} cold requests"),
            ("warm_req_p50_s", median([x for o, x in ops
                                       if not o["cold"]]), "s",
             f"{sum(not o['cold'] for o, _ in ops)} warm requests"),
        ]
    else:
        rows += [
            ("sweep_wall_s", metrics["wall_s"], "s",
             f"median of {len(passes)} sweeps"),
            ("cell_p50_s", metrics["op_p50_s"], "s", f"{n_ops} valid cells"),
            ("cell_p95_s", metrics["op_p95_s"], "s", f"{n_ops} valid cells"),
        ]
    rows += [("failed_frac", failed / max(1, attempted), "ratio",
              f"{failed} of {attempted} ops"),
             ("peak_rss_mb", metrics["peak_rss_mb"], "MB",
              "highest over passes")]
    raw = median([r["wall"] for r in passes])
    print(f"== {workload}: end-to-end (untraced), at the reference speed "
          f"(probe {1000 * REF_PROBE_S:g} ms); measured wall median "
          f"{raw:.4f} s")
    for name, value, unit, note in rows:
        print(f"  {name:<16} {value:12.4f} {unit:<6} {note}")


# -- per layer ----------------------------------------------------------

def layer_table(workload: str, result: dict):
    """Self-time rows for one traced pass, and the traced wall.

    Spans in worker processes ran on ``jobs`` workers at once, so their
    self times count ``1/jobs`` against the wall.  In the pooled sweep
    the tuning layer's pool row is what the parent spent outside the
    cells; in the served stream the serve row is the time the single
    worker was not inside a request (wire, admission, queue, dispatch).
    """
    wall = result["wall"]
    rows = {}
    parent = result.get("parent_ledger", ledger.empty())["spans"]
    worker = result["worker_ledger"]["spans"]
    jobs = result.get("jobs", 1)
    for name, (_, _, self_s) in parent.items():
        rows[name] = rows.get(name, 0.0) + self_s
    for name, (_, _, self_s) in worker.items():
        rows[name] = rows.get(name, 0.0) + self_s / jobs
    if workload == "piv-sweep":
        probes = worker.get("perfbench.probe", [0, 0.0, 0.0])[1]
        cells = sum(c["wall"] for c in result["cells"]) + probes
        rows["tuning.pool"] = (wall - cells / jobs
                               - sum(s for _, _, s in parent.values()))
    elif workload == "tm-serve":
        busy = sum(worker.get(name, [0, 0.0, 0.0])[1]
                   for name in ("apps.request", "perfbench.probe"))
        rows["serve.outside_worker"] = wall - busy
    return rows, wall


def layer_metrics(workload: str, result: dict, plain: dict) -> dict:
    book = ledger.merge(ledger.merge(ledger.empty(),
                                     result.get("parent_ledger",
                                                ledger.empty())),
                        result["worker_ledger"])
    spans, counts = book["spans"], book["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    m = {"kernelc.compiles": counts.get("kernelc.compiles", 0),
         "kernelc.compile_s": incl("kernelc.compile"),
         "kernelc.ir_instrs": counts.get("kernelc.ir_instrs", 0)}
    for phase in ("preprocess", "parse", "lower", "optimize", "constprop",
                  "constfold", "dce", "cse", "scalarize", "regalloc"):
        m[f"kernelc.{phase}_s"] = incl(f"kernelc.{phase}")
    hits = counts.get("gpupf.cache_hits", 0)
    misses = counts.get("gpupf.cache_misses", 0)
    counters = result["counters"]
    m.update({
        "gpupf.cache_hits": hits, "gpupf.cache_misses": misses,
        "gpupf.cache_hit_ratio": ratio(hits, misses),
        "gpupf.refresh_self_s": own("gpupf.refresh"),
        "gpupf.run_self_s": own("gpupf.run"),
        "gpusim.launches": calls("gpusim.launch"),
        "gpusim.launch_s": incl("gpusim.launch"),
        "gpusim.plan_build_s": incl("gpusim.plan_build"),
        "gpusim.plan_hit_ratio": ratio(counters.get("plan_hits", 0),
                                       counters.get("plan_misses", 0)),
        "gpusim.engine_s": incl("gpusim.engine"),
        "gpusim.gang_hit_ratio": ratio(counters.get("gang_hits", 0),
                                       counters.get("gang_misses", 0)),
        "apps.make_inputs_s": incl("apps.make_inputs"),
        "apps.request_self_s": own("apps.request"),
        "runtime.context_build_s": incl("runtime.context_build"),
    })
    cells = result.get("cells", [])
    jobs = result.get("jobs", 1)
    m.update({
        "tuning.cells": len(cells),
        "tuning.invalid_cells": sum(not c["valid"] for c in cells),
        "tuning.invalid_cell_s": sum(c["wall"] for c in cells
                                     if not c["valid"]),
        "tuning.pool_overhead_s": (result["wall"]
                                   - (sum(c["wall"] for c in cells)
                                      + incl("perfbench.probe")) / jobs
                                   if cells else 0.0),
    })
    ops = result.get("ops", [])
    plain_ops = plain.get("ops", [])
    m.update({
        "serve.cold_req_p50_s": median([o["rtt"] for o in plain_ops
                                        if o["cold"]]),
        "serve.warm_req_p50_s": median([o["rtt"] for o in plain_ops
                                        if not o["cold"]]),
        "serve.requests_per_s": (len(plain_ops) / plain["wall"]
                                 if plain_ops else 0.0),
        "serve.outside_worker_p50_s": median([o["rtt"] - o["worker_s"]
                                              for o in ops]),
        "serve.queue_wait_p50_s": median(result.get("queue_waits", [])),
        "serve.worker_busy_frac": (sum(o["worker_s"] for o in ops)
                                   / result["wall"] if ops else 0.0),
        "serve.cold_requests": sum(o["cold"] for o in ops),
        "serve.redispatches": result.get("redispatches", 0),
        "serve.shed": result.get("shed", 0),
    })
    rows, wall = layer_table(workload, result)
    unattributed = wall - sum(rows.values())
    m["obs.trace_overhead_frac"] = result["wall"] / plain["wall"] - 1.0
    m["obs.outer_self_frac"] = sum(rows.get(name, 0.0)
                                   for name in OUTER_SPANS) / wall
    m["obs.coverage_frac"] = 1.0 - unattributed / wall
    m["unattributed_s"] = unattributed
    return m


def print_layer_table(workload: str, result: dict) -> None:
    rows, wall = layer_table(workload, result)
    unattributed = wall - sum(rows.values())
    print(f"== {workload}: per-layer self time (traced wall "
          f"{wall:.3f} s)")
    by_layer = {}
    for name, value in rows.items():
        layer = name.split(".", 1)[0]  # a module of src/repro
        by_layer.setdefault(layer, []).append((name, value))
    for layer in sorted(by_layer, key=lambda k: -sum(
            v for _, v in by_layer[k])):
        total = sum(v for _, v in by_layer[layer])
        print(f"  {layer:<28} {total:9.4f} s {100 * total / wall:6.2f}%")
        for name, value in sorted(by_layer[layer], key=lambda x: -x[1]):
            note = " (remainder)" if name in REMAINDERS else ""
            print(f"    {name:<26} {value:9.4f} s "
                  f"{100 * value / wall:6.2f}%{note}")
    print(f"  {'unattributed':<28} {unattributed:9.4f} s "
          f"{100 * unattributed / wall:6.2f}%")
    outer = sum(rows.get(name, 0.0) for name in OUTER_SPANS)
    print(f"  inside a cell or request but below no layer span: "
          f"{outer:.4f} s {100 * outer / wall:.2f}%")


def run_traced(workload: str, seed: int):
    plain = spawn_pass(workload, seed, "plain")[2]
    traced = [spawn_pass(workload, seed, "traced")[2] for _ in range(2)]
    per_pass = [layer_metrics(workload, r, plain) for r in traced]
    notes = []
    for name in EXACT_COUNTS:
        if per_pass[0][name] != per_pass[1][name]:
            notes.append(f"count {name} differs between two traced "
                         f"passes: {per_pass[0][name]} vs "
                         f"{per_pass[1][name]}")
    metrics = {name: (per_pass[0][name] if name in EXACT_COUNTS
                      else median([m[name] for m in per_pass]))
               for name in PER_LAYER}
    print_layer_table(workload, traced[0])
    if metrics["obs.coverage_frac"] < MIN_COVERAGE:
        print(f"warning: the layer table covers only "
              f"{100 * metrics['obs.coverage_frac']:.1f}% of the traced "
              f"wall", file=sys.stderr)
    return [plain] + traced, metrics, notes


# -- command line -------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout's own ``.git``, or ``unknown``."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(seed: int) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy,
            "machine": platform.machine(), "commit": git_commit(),
            "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the full result as one JSON line")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    stamp = env_stamp(args.seed)
    print("env: " + json.dumps(stamp, sort_keys=True))
    try:
        if args.trace:
            passes, metrics, notes = run_traced(args.workload, args.seed)
            units = PER_LAYER
        else:
            passes, metrics = run_e2e(args.workload, args.seed,
                                      args.seconds)
            notes = []
            units = E2E
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    for r in passes:
        for message in r["messages"]:
            print(f"mismatch: {message}", file=sys.stderr)
    for note in notes:
        print(f"mismatch: {note}", file=sys.stderr)
    correct = failed == 0 and not notes
    result = {"correct": correct, "attempted": attempted,
              "failed": failed + len(notes),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(dict(result, workload=args.workload,
                                     trace=args.trace, env=stamp)) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
