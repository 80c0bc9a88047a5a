"""Benchmark-side per-layer ledger: wrappers around public entry points.

The ledger times calls into each layer of ``repro`` from outside, by
replacing a layer's public functions with thin timing wrappers.  No
instrumentation lives in ``src/``; the program is unchanged except that
the wrapped names now point at wrappers while this process runs.

Each wrapped call is a span.  A span's *self* time is its duration
minus the durations of the wrapped calls made inside it on the same
thread, so the self times of nested spans add up to the outermost
span's wall time and never double count.  The ledger keeps, per span
name, ``[calls, inclusive_s, self_s]`` plus a few exact counters
(compiles, IR instructions, binary-cache hits and misses).

:func:`install` must run before the work starts.  Worker processes
forked afterwards (the sweep process pool, the serve daemon's worker)
inherit the wrappers; each ships its own ledger back with the results
it returns (see ``Ledger.delta``).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Dict, List

#: (module, attribute path, span name).  Attribute paths with a dot
#: name a method on a class.  Functions imported by name into another
#: module are wrapped at every place the program looks them up.
WRAPS = [
    # tuning: one sweep cell, evaluated by the picklable runner.
    ("repro.tuning.app_sweeps", "HarnessRunner.__call__", "tuning.cell"),
    # apps: one request, and its input generation.
    ("repro.tuning.app_sweeps", "run_request", "apps.request"),
    ("repro.serve.worker", "run_request", "apps.request"),
    ("repro.apps.harness", "PIVHarness.make_inputs", "apps.make_inputs"),
    ("repro.apps.harness", "TemplateMatchingHarness.make_inputs",
     "apps.make_inputs"),
    # runtime: building an execution context.
    ("repro.runtime.context", "ExecutionContext.__init__",
     "runtime.context_build"),
    # gpupf: host pipeline refresh and run.
    ("repro.gpupf.pipeline", "Pipeline.refresh", "gpupf.refresh"),
    ("repro.gpupf.pipeline", "Pipeline.run", "gpupf.run"),
    # kernelc: the compiler driver, its phases and optimizer passes.
    ("repro.gpupf.cache", "nvcc", "kernelc.compile"),
    ("repro.kernelc.compiler", "nvcc", "kernelc.compile"),
    ("repro.kernelc.preprocessor", "Preprocessor.process",
     "kernelc.preprocess"),
    ("repro.kernelc.parser", "Parser.parse", "kernelc.parse"),
    ("repro.kernelc.codegen", "CodeGen.run", "kernelc.lower"),
    ("repro.kernelc.compiler", "run_pipeline", "kernelc.optimize"),
    ("repro.kernelc.passes", "propagate_kernel", "kernelc.constprop"),
    ("repro.kernelc.passes", "fold_kernel", "kernelc.constfold"),
    ("repro.kernelc.passes", "dce_kernel", "kernelc.dce"),
    ("repro.kernelc.passes", "remove_unreachable", "kernelc.dce"),
    ("repro.kernelc.passes", "cse_kernel", "kernelc.cse"),
    ("repro.kernelc.passes", "scalarize_kernel", "kernelc.scalarize"),
    ("repro.kernelc.passes", "assign_registers", "kernelc.regalloc"),
    ("repro.kernelc.passes", "strength_reduce_kernel",
     "kernelc.strength"),
    ("repro.kernelc.passes", "magic_divide_kernel", "kernelc.magicdiv"),
    ("repro.kernelc.passes", "renumber", "kernelc.renumber"),
    # gpusim: launches, launch-plan builds and the engines.
    ("repro.gpusim.launcher", "GPU.launch", "gpusim.launch"),
    ("repro.gpusim.executor", "KernelPlan.__init__", "gpusim.plan_build"),
    ("repro.gpusim.launcher", "run_blocks_batched", "gpusim.engine"),
    ("repro.gpusim.executor", "BlockExecutor.run", "gpusim.engine"),
]


class Ledger:
    """Per-process span and counter totals (see module docstring)."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        stack_of = self._stack
        record = self._record

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = stack_of()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                record(name, dur, dur - child)

        return timed

    def _record(self, name: str, dur: float, self_s: float) -> None:
        with self._lock:
            row = self.spans.get(name)
            if row is None:
                row = self.spans[name] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += dur
            row[2] += self_s

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def snapshot(self) -> dict:
        with self._lock:
            return {"spans": {k: list(v) for k, v in self.spans.items()},
                    "counts": dict(self.counts)}

    def delta(self, before: dict) -> dict:
        """What was recorded since *before* (a :meth:`snapshot`)."""
        now = self.snapshot()
        spans = {}
        for name, row in now["spans"].items():
            old = before["spans"].get(name, [0, 0.0, 0.0])
            if row[0] != old[0]:
                spans[name] = [row[0] - old[0], row[1] - old[1],
                               row[2] - old[2]]
        counts = {name: n - before["counts"].get(name, 0)
                  for name, n in now["counts"].items()
                  if n != before["counts"].get(name, 0)}
        return {"spans": spans, "counts": counts}


def merge(into: dict, other: dict) -> dict:
    """Add ledger *other* (a snapshot or delta) into *into*."""
    for name, row in other["spans"].items():
        acc = into["spans"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += row[i]
    for name, n in other["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n
    return into


def empty() -> dict:
    return {"spans": {}, "counts": {}}


#: This process's ledger; :func:`install` points the wrappers at it.
LEDGER = Ledger()
_installed = False

#: Iterations of :func:`probe`'s loop: a few milliseconds of Python.
PROBE_LOOPS = 25_000


def probe() -> float:
    """Seconds this thread takes for a fixed pure-Python loop.

    The benchmark's host changes speed by tens of percent for seconds
    to minutes at a time, one core at a time.  A probe run on the same
    thread just before each cell or request measures the speed that
    piece of work ran at; ``run.py`` uses it to report times at one
    reference speed (see ``run.REF_PROBE_S``).
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


#: :func:`probe`, or its ``perfbench.probe`` span once layers are on.
_probe_fn = probe


def _resolve(module_name: str, path: str):
    import importlib
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(layers: bool = True) -> Ledger:
    """Install the wrappers (once per process).

    With ``layers=False`` only sweep cells are timed, and an infeasible
    cell's exception propagates untouched: that is the untraced run,
    which must not change what the program does.  With ``layers=True``
    every entry point in :data:`WRAPS` becomes a span as well.  A serve
    daemon calls :func:`wrap_requests` next.
    """
    global _installed, _probe_fn
    if _installed:
        raise RuntimeError("perfbench ledger already installed")
    if layers:
        for module_name, path, name in WRAPS:
            owner, attr = _resolve(module_name, path)
            setattr(owner, attr, LEDGER.wrap(getattr(owner, attr), name))
        _wrap_compile_counts()
        _wrap_cache_counts()
        _probe_fn = LEDGER.wrap(probe, "perfbench.probe")
    _wrap_cells(capture_errors=layers)
    _installed = True
    return LEDGER


def _wrap_compile_counts() -> None:
    """Count compiles and the static IR instructions they produce."""
    import repro.gpupf.cache as cache_mod
    import repro.kernelc.compiler as compiler_mod
    timed = cache_mod.nvcc

    def nvcc(*args, **kwargs):
        module = timed(*args, **kwargs)
        LEDGER.count("kernelc.compiles")
        LEDGER.count("kernelc.ir_instrs",
                     sum(k.static_instructions
                         for k in module.kernels.values()))
        return module

    cache_mod.nvcc = nvcc
    compiler_mod.nvcc = nvcc


def _wrap_cache_counts() -> None:
    """Classify each binary-cache lookup as a hit or a miss."""
    from repro.gpupf.cache import KernelCache
    lookup = KernelCache.compile

    def counted(self, *args, **kwargs):
        hits = self.hits
        try:
            return lookup(self, *args, **kwargs)
        finally:
            LEDGER.count("gpupf.cache_hits" if self.hits > hits
                         else "gpupf.cache_misses")

    KernelCache.compile = counted


def _wrap_cells(capture_errors: bool) -> None:
    """Time each sweep cell and ship the worker's ledger home with it,
    together with the evaluating process's pid, peak RSS so far and a
    speed :func:`probe` taken just before the cell.

    Runs inside whichever process evaluates the cell.  An infeasible
    cell raises; with *capture_errors* the wrapper turns it into the
    same invalid record the sweeper would build, so its wall time and
    ledger travel home too.
    """
    import os
    import resource
    from repro.tuning.app_sweeps import HarnessRunner
    from repro.tuning.sweep import SweepRecord
    call = HarnessRunner.__call__

    def cell(self, config):
        before = LEDGER.snapshot()
        speed = _probe_fn()
        start = time.perf_counter()
        try:
            record = call(self, config)
        except Exception as exc:
            if not capture_errors:
                raise
            record = SweepRecord(config=dict(config), seconds=float("inf"),
                                 valid=False,
                                 error=f"{type(exc).__name__}: {exc}")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record.perfbench = {"wall": time.perf_counter() - start,
                            "start": start, "probe": speed,
                            "pid": os.getpid(), "rss_kb": peak,
                            "ledger": LEDGER.delta(before)}
        return record

    HarnessRunner.__call__ = cell


def wrap_requests(ship_ledger: bool) -> None:
    """Probe the serve worker's speed before each request and ship the
    probe (and, with *ship_ledger*, the request's ledger) on its
    RunResult."""
    import repro.serve.worker as worker_mod
    run = worker_mod.run_request

    def run_request(request, context=None):
        before = LEDGER.snapshot()
        speed = _probe_fn()
        start = time.perf_counter()
        result = run(request, context=context)
        result.perfbench = {"start": start, "probe": speed}
        if ship_ledger:
            result.perfbench["ledger"] = LEDGER.delta(before)
        return result

    worker_mod.run_request = run_request
