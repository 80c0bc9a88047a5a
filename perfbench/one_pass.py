"""One pass of one workload, in a fresh interpreter.

``python perfbench/one_pass.py --workload W --seed N --mode M``

Prints ``PERFBENCH-READY`` once set-up is done (imports, input
generation, daemon and worker spawn, first ping) and then
``PERFBENCH-PROBE <seconds>``, the median of three speed probes (see
:func:`ledger.probe`) taken after set-up; then it runs the workload
once and prints ``PERFBENCH-RESULT <json>``.  Modes:

* ``setup``  — stop right after the ready line (a set-up sample);
* ``plain``  — the untraced run: no layer wrappers (sweep cells are
  timed, nothing else);
* ``traced`` — every layer wrapper installed (see :mod:`ledger`); the
  served workload's daemon (``daemon.py``) installs them too and runs
  with the program's own ``--trace`` export on.

The caller (``run.py``) times set-up from process start to the ready
line and aggregates passes into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

import ledger  # noqa: E402  (perfbench/ is on sys.path)
import workloads as W  # noqa: E402

#: How long the daemon may take to print its address or to drain.
DAEMON_TIMEOUT_S = 30.0


def ready() -> None:
    print("PERFBENCH-READY", flush=True)
    speed = sorted(ledger.probe() for _ in range(3))[1]
    print(f"PERFBENCH-PROBE {speed!r}", flush=True)


def emit(result: dict) -> None:
    print("PERFBENCH-RESULT " + json.dumps(result), flush=True)


def own_rss_kb() -> int:
    """This process's peak RSS so far, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def hwm_kb(pid: int) -> int:
    """The peak RSS (``VmHWM``) of live process *pid*, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- sweeps -------------------------------------------------------------

def run_sweep(workload: str, seed: int, mode: str) -> dict:
    from repro.apps.harness import ProblemSpec, get_harness
    from repro.tuning import harness_sweep
    sweep = W.SWEEPS[workload]
    app = sweep["app"]
    problem = W.problem(app)
    inputs = W.input_seed(seed)
    book = ledger.install(layers=(mode == "traced"))
    get_harness(app).make_inputs(
        ProblemSpec(app, problem, seed=inputs,
                    device=sweep["devices"][0],
                    memory_bytes=W.MEMORY_BYTES))
    ready()
    if mode == "setup":
        return {}
    wall = 0.0
    parent = ledger.empty()
    records = []
    messages = []
    failed = 0
    for device in sweep["devices"]:
        before = book.snapshot()
        start = time.perf_counter()
        sweeper = harness_sweep(app, problem, W.axes(app), device=device,
                                seed=inputs,
                                memory_bytes=W.MEMORY_BYTES,
                                jobs=sweep["jobs"], pool=sweep["pool"])
        wall += time.perf_counter() - start
        ledger.merge(parent, book.delta(before))
        bad, notes = W.check_sweep(app, device, sweeper.records)
        failed += bad
        messages += notes
        records += sweeper.records
    pid = os.getpid()
    cells = []
    work = ledger.empty()
    counters = {}
    peaks = {pid: own_rss_kb()}  # pid -> that process's own peak
    for r in records:
        info = getattr(r, "perfbench", None)
        if info is None:
            # Untraced, an infeasible cell raises past the cell timer.
            if r.valid:
                failed += 1
                messages.append(f"cell {r.config} came back untimed")
            continue
        cells.append({"wall": info["wall"], "valid": r.valid,
                      "pid": info["pid"], "start": info["start"],
                      "probe": info["probe"]})
        if info["pid"] != pid:
            ledger.merge(work, info["ledger"])
            peaks[info["pid"]] = max(peaks.get(info["pid"], 0),
                                     info["rss_kb"])
        for key, value in r.counters.items():
            counters[key] = counters.get(key, 0) + value
    return {
        "wall": wall, "jobs": sweep["jobs"], "cells": cells,
        "attempted": len(records), "failed": failed,
        "messages": messages[:10], "counters": counters,
        "parent_ledger": parent, "worker_ledger": work,
        "rss_mb": sum(peaks.values()) / 1024.0,
    }


# -- served stream ------------------------------------------------------

class Daemon:
    """A ``repro.serve`` daemon subprocess with bounded start and stop."""

    def __init__(self, traced: bool):
        os.makedirs(TMP_DIR, exist_ok=True)
        self.trace_path = None
        cmd = [sys.executable, os.path.join(HERE, "daemon.py"),
               "traced" if traced else "plain", "--start-method", "fork",
               "--workers", "1"]
        if traced:
            self.trace_path = os.path.join(
                TMP_DIR, f"serve-trace-{os.getpid()}.json")
            cmd += ["--trace", self.trace_path]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     cwd=ROOT, env=os.environ.copy())
        self.address = self._read_address()
        self._wait_for_handlers()

    def _read_address(self):
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while time.monotonic() < deadline:
            ready_fds, _, _ = select.select([self.proc.stdout], [], [],
                                            0.5)
            if ready_fds:
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if line.startswith("serve: "):
                    _, host, port = line.split()
                    return host, int(port)
        self.stop()
        raise RuntimeError("serve daemon did not report its address")

    def _wait_for_handlers(self) -> None:
        """Wait until the daemon catches SIGTERM, that is until it has
        installed its drain-on-signal handlers.  It prints its address
        before it does so, and a SIGINT that lands in between leaves it
        hanging on its non-daemon threads."""
        deadline = time.monotonic() + DAEMON_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("SigCgt:"):
                        caught = int(line.split()[1], 16)
                        if caught & (1 << (signal.SIGTERM - 1)):
                            return
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("serve daemon did not install its handlers")

    def stop(self) -> None:
        """SIGINT (drain), bounded wait, then SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(DAEMON_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def read_trace(self) -> dict:
        with open(self.trace_path) as fh:
            doc = json.load(fh)
        os.unlink(self.trace_path)
        return doc


def wait_for_worker(client, timeout: float = DAEMON_TIMEOUT_S) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = client.health()["workers"]
        if workers and all(w["alive"] and w["pid"] for w in workers):
            return
        time.sleep(0.02)
    raise RuntimeError("serve worker did not come up")


def run_serve(seed: int, mode: str) -> dict:
    from repro.apps.harness import ProblemSpec, RunRequest, get_harness
    from repro.serve.client import ServiceClient
    app = "template_matching"
    harness = get_harness(app)
    spec = ProblemSpec(app, W.problem(app), seed=W.input_seed(seed),
                       device="c2070", memory_bytes=W.MEMORY_BYTES)
    harness.make_inputs(spec)
    stream = W.request_stream(seed)
    requests = [RunRequest(spec, harness.sweep_config(cfg))
                for cfg in stream]
    daemon = Daemon(traced=(mode == "traced"))
    clients = []
    try:
        host, port = daemon.address
        clients = [ServiceClient(host, port, client=f"c{i}")
                   for i in range(W.SERVE_CLIENTS)]
        if clients[0].ping() != "pong":
            raise RuntimeError("serve daemon did not answer ping")
        wait_for_worker(clients[0])
        ready()
        if mode == "setup":
            return {}
        replies = [None] * len(requests)
        start_gate = threading.Barrier(len(clients) + 1)

        def drive(i):
            start_gate.wait()
            for index in range(i, len(requests), len(clients)):
                t0 = time.perf_counter()
                try:
                    result = clients[i].run(requests[index])
                except Exception as exc:  # typed service errors
                    replies[index] = (time.perf_counter() - t0, exc)
                    continue
                replies[index] = (time.perf_counter() - t0, result)

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(clients))]
        for t in threads:
            t.start()
        start_gate.wait()
        start = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        health = clients[0].health()
        # Each process's own peak, read while daemon and worker live.
        pids = [daemon.proc.pid] + [w["pid"] for w in health["workers"]]
        rss_mb = (own_rss_kb() + sum(hwm_kb(p) for p in pids)) / 1024.0
    finally:
        for c in clients:
            c.close()
        daemon.stop()
    return summarize_serve(stream, replies, wall, health, daemon, mode,
                           rss_mb)


def summarize_serve(stream, replies, wall, health, daemon, mode,
                    rss_mb) -> dict:
    table = W.load_expected("template_matching", "c2070")["cells"]
    messages = []
    failed = 0
    first_seen = {}
    ops = []
    work = ledger.empty()
    counters = {}
    for config, (rtt, reply) in zip(stream, replies):
        key = W.config_key(config)
        if isinstance(reply, Exception):
            failed += 1
            messages.append(f"request {key} failed: {reply!r}")
            continue
        got = W.result_outcome(reply)
        cold = reply.counters.get("plan_misses", 0) > 0
        wrong = got != table.get(key)
        if not wrong and key in first_seen:
            wrong = (reply.seconds, reply.transfer_seconds) != first_seen[key]
        if wrong:
            failed += 1
            messages.append(f"request {key}: got {got}, expected "
                            f"{table.get(key)}")
        first_seen.setdefault(key, (reply.seconds,
                                    reply.transfer_seconds))
        info = reply.perfbench
        ops.append({"rtt": rtt, "cold": cold,
                    "worker_s": reply.wall_seconds,
                    "start": info["start"], "probe": info["probe"]})
        for name, value in reply.counters.items():
            counters[name] = counters.get(name, 0) + value
        if "ledger" in info:
            ledger.merge(work, info["ledger"])
    distinct = len({W.config_key(c) for c in stream})
    cold = sum(op["cold"] for op in ops)
    if cold != distinct:
        failed += 1
        messages.append(f"{cold} cold requests, but the stream has "
                        f"{distinct} distinct configs")
    service = health["metrics"]["counters"]
    out = {
        "wall": wall, "ops": ops, "attempted": len(stream),
        "failed": failed, "messages": messages[:10],
        "redispatches": service.get("serve.redispatch", 0),
        "shed": service.get("serve.shed", 0),
        "counters": counters, "worker_ledger": work,
        "rss_mb": rss_mb,
    }
    if mode == "traced":
        doc = daemon.read_trace()
        out["queue_waits"] = [e["dur"] / 1e6 for e in doc["traceEvents"]
                              if e["name"] == "queue" and "dur" in e]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "traced"))
    args = parser.parse_args(argv)
    if args.workload == "tm-serve":
        result = run_serve(args.seed, args.mode)
    else:
        result = run_sweep(args.workload, args.seed, args.mode)
    if args.mode != "setup":
        emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
