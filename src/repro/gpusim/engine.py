"""Block-batched SIMT execution engine.

The serial path in :mod:`repro.gpusim.executor` runs one
:class:`~repro.gpusim.executor.BlockExecutor` per block: every block
pays the full Python interpreter loop even though most blocks of a
launch execute the *same* instruction trace.  This module batches B
blocks into a *gang*: per-warp-position fragments whose lane state is
(B, 32) NumPy arrays, so one interpreter step retires a warp-instruction
for every block in the gang at once.

Exactness is the contract: batched execution produces bit-identical
device memory and identical per-warp statistics to the serial oracle.
Both engines execute instructions through one semantics core
(:mod:`repro.gpusim.semantics`, over ``(M, 32)`` lane arrays; the
serial block is its one-member case), so what an instruction computes
and costs is defined once.  What this module adds is the gang
scheduler, which mirrors the serial one decision for decision:

* All members of a fragment share one program counter and one SIMT
  reconvergence stack (stack masks are (B, 32)).  Whenever a decision
  the serial interpreter takes would differ *across* blocks — a branch
  that is uniformly taken in one block but divergent in another, or an
  ``exit`` that empties some blocks' masks only — the fragment *splits*
  into sub-fragments that continue independently.  A fragment of one
  member is exactly the serial per-block path, so per-block fallback is
  the degenerate case of splitting rather than a separate code path.
* Statistics accumulate in the core's per-member arrays (issue cycles
  and memory traffic) and fragment-wide ints (every other counter:
  all members of a fragment retire the same events) with the same
  sequence of additions as a one-member run, so floating-point
  issue-cycle totals match bit for bit.  Memory-transaction counts
  (coalescing, bank conflicts, constant broadcasts) are computed per
  member by the batch forms in :mod:`repro.gpusim.coalescing`.
* Barriers rendezvous per block: the round scheduler releases waiting
  fragments only once no fragment in the batch can run, which releases
  every block that has fully arrived (blocks in a batch are
  independent, so the extra wait cannot change results).

Cross-block memory ordering: within one warp-instruction, member side
effects apply in ascending block order (the serial order for that
instruction).  Blocks that communicate through global memory across
*different* instructions see an interleaving that may differ from the
serial block-at-a-time order — as on real hardware, where inter-block
ordering is undefined.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.executor import (_CTAID_KEYS, BlockStats, KernelPlan,
                                   LaneLayout, PlannedInstr, TextureBinding)
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import FlatMemory, GlobalMemory
from repro.gpusim.semantics import (FRAGMENT_STATS, MEMBER_STATS, WARP,
                                    BlockResources, LaneCore, SimError,
                                    WarpStats)
from repro.kernelc.ir import IRKernel

from repro.runtime.context import ENGINE_ENV, ENGINES, current_context

from repro.gpusim import trace as gang_trace

#: Blocks ganged per batch.  Bounds transient lane-state memory
#: (n_regs × batch × 32 × 8 bytes) while keeping the per-instruction
#: Python overhead amortized over many blocks.
DEFAULT_BATCH_BLOCKS = 128


def default_engine() -> str:
    """The current context's engine, used when a launch names none."""
    return current_context().engine


def set_default_engine(name: str) -> str:
    """Set the current context's engine; returns the previous one.

    The name is stored as given (no ``REPRO_ENGINE`` upgrade — that
    applies when launches resolve), so a context reads back exactly
    the engine it was told to default to.
    """
    resolved = resolve_engine(name, upgrade=False)
    return current_context().set_engine(resolved)


def resolve_engine(name: Optional[str], ctx=None,
                   upgrade: bool = True) -> str:
    """Validate an ``engine=`` argument (None selects *ctx*'s default).

    The ``REPRO_ENGINE`` environment variable upgrades ``"batched"``
    resolutions to ``"traced"`` (the trace-JIT is a bit-exact superset
    of the gang interpreter); an explicit ``"serial"`` is never
    overridden so the oracle stays reachable for differential runs.
    """
    if name is None or name == "auto":
        name = (ctx or current_context()).engine
    env = os.environ.get(ENGINE_ENV) if upgrade else None
    if env:
        if env not in ENGINES:
            raise SimError(
                f"invalid {ENGINE_ENV}={env!r}; valid engines are "
                + ", ".join(repr(e) for e in ENGINES))
        if env == "traced" and name == "batched":
            name = "traced"
    if name not in ENGINES:
        raise SimError(
            f"unknown execution engine {name!r}; valid engines are "
            + ", ".join(repr(e) for e in ENGINES)
            + f" (pass engine=..., call set_default_engine(), or set "
            f"{ENGINE_ENV}=traced to upgrade batched launches)")
    return name


def run_blocks_batched(kernel: IRKernel, device: DeviceSpec,
                       gmem: GlobalMemory, cmem: FlatMemory,
                       args: Dict[str, object],
                       indices: Sequence[Tuple[int, int, int]],
                       block_dim: Tuple[int, int, int],
                       grid_dim: Tuple[int, int, int],
                       dynamic_smem: int = 0,
                       plan: Optional[KernelPlan] = None,
                       textures: Optional[Dict[str, TextureBinding]] = None,
                       batch_blocks: Optional[int] = None,
                       ctx=None,
                       traced: bool = False,
                       ) -> List[BlockStats]:
    """Execute *indices* blocks gang-batched; stats in index order.

    With ``traced=True`` gang warps record/replay compiled traces
    (:mod:`repro.gpusim.trace`); results stay bit-identical — the
    trace machinery deoptimizes to this interpreter on any guard
    failure.  Callers must not enable it while a fault injector is
    armed (the launcher enforces this).
    """
    if ctx is None:
        ctx = current_context()
    if plan is None:
        plan = KernelPlan(kernel, device)
    if batch_blocks is None:
        batch_blocks = int(os.environ.get("REPRO_SIM_BATCH",
                                          DEFAULT_BATCH_BLOCKS))
    batch_blocks = max(1, batch_blocks)
    stats: List[BlockStats] = []
    injector = ctx.injector
    tracer = ctx.tracer
    for start in range(0, len(indices), batch_blocks):
        if injector is not None:
            # Fault site: watchdog kill between gang batches.  Earlier
            # batches already wrote device memory — retrying callers
            # must snapshot/restore around the whole launch.
            injector.check("launch.watchdog",
                           detail=f"{kernel.name}@batch{start}")
        batch = _Batch(kernel, device, gmem, cmem, args,
                       indices[start:start + batch_blocks], block_dim,
                       grid_dim, dynamic_smem, plan, textures or {},
                       ctx=ctx, traced=traced)
        if tracer is not None:
            n = min(batch_blocks, len(indices) - start)
            with tracer.span(f"gang:{kernel.name}", "engine",
                             batch_start=start, blocks=n):
                stats.extend(batch.run())
        else:
            stats.extend(batch.run())
    return stats


def _gang_proto(plan: KernelPlan, device: DeviceSpec, block_dim,
                grid_dim, ctx=None) -> LaneLayout:
    stats = (ctx or current_context()).gang_stats
    key = (block_dim, grid_dim)
    proto = plan.gang_protos.get(key)
    if proto is None:
        stats["misses"] += 1
        proto = LaneLayout(device, block_dim, grid_dim)
        plan.gang_protos[key] = proto
    else:
        stats["hits"] += 1
    return proto


def gang_cache_stats(ctx=None) -> Dict[str, int]:
    """Gang-prototype hit/miss counters for *ctx* (default current).

    Prototypes live on cached :class:`KernelPlan` objects, so
    :func:`repro.gpusim.clear_plan_cache` evicts them too.
    """
    return dict((ctx or current_context()).gang_stats)


class _BlockCtx:
    """Per-block state shared by that block's fragments."""

    __slots__ = ("block_idx", "slot", "warp_stats")

    def __init__(self, block_idx, slot, nwarps):
        self.block_idx = block_idx
        self.slot = slot
        self.warp_stats: List[Optional[WarpStats]] = [None] * nwarps


class _Batch(BlockResources):
    """One gang of blocks executing a launch chunk in lockstep."""

    def __init__(self, kernel, device, gmem, cmem, args, indices,
                 block_dim, grid_dim, dynamic_smem, plan, textures,
                 ctx=None, traced=False):
        self.traced = traced
        self.trace_stats = (ctx or current_context()).trace_stats
        self.kernel = kernel
        self.device = device
        self.gmem = gmem
        self.cmem = cmem
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.plan = plan
        self.ipdom = plan.ipdom
        self.proto = _gang_proto(plan, device, block_dim, grid_dim,
                                 ctx=ctx)
        self.nthreads = self.proto.nthreads
        self.nwarps = self.proto.nwarps
        # All member blocks share one stacked shared-memory buffer, a
        # row per block, so gangs gather/scatter it in a single fancy
        # index.
        self._init_resources(args, textures,
                             kernel.shared_bytes + dynamic_smem,
                             len(indices))
        self.ctxs = [_BlockCtx(bidx, slot, self.nwarps)
                     for slot, bidx in enumerate(indices)]

    def smem_view2(self, dtype, row_elems: int) -> np.ndarray:
        """A 2-D (slot, element) view of the shared-memory stack.

        ``row_elems`` must be ``smem_row // itemsize``; rows are
        padded to 16 bytes, so any element dtype tiles exactly.
        """
        key = (dtype, 2)
        view = self._smem_views.get(key)
        if view is None:
            view = self.smem_stack.view(dtype).reshape(-1, row_elems)
            self._smem_views[key] = view
        return view

    def run(self) -> List[BlockStats]:
        pool: List[_GangWarp] = [
            _GangWarp(self, wid, list(self.ctxs))
            for wid in range(self.nwarps)]
        guard = 0
        limit = 10_000_000
        ctx = np.errstate(all="ignore")
        ctx.__enter__()
        try:
            # Round-robin with barrier rendezvous, mirroring the serial
            # scheduler: run every runnable fragment to its next stop,
            # then release barriers when nothing can run.
            while True:
                guard += 1
                if guard > limit:
                    raise SimError("block execution did not terminate "
                                   "(runaway loop in kernel?)")
                running = [f for f in pool
                           if not f.finished and not f.at_barrier]
                if not running:
                    waiting = [f for f in pool if f.at_barrier]
                    if not waiting:
                        break
                    for f in waiting:
                        f.at_barrier = False
                    continue
                running.sort(key=lambda f: f.wid)
                for frag in running:
                    work = [frag]
                    while work:
                        g = work.pop()
                        spawned = g.run_quantum()
                        pool.extend(spawned)
                        work.extend(spawned)
        finally:
            ctx.__exit__(None, None, None)
            # An aborted launch must not leave its trace key stuck in
            # trace_pending on the (cached, shared) plan.
            for frag in pool:
                if frag._rec is not None:
                    gang_trace.abort_recording(frag)
        for frag in pool:
            frag.finalize()
        return [BlockStats(warps=list(c.warp_stats)) for c in self.ctxs]


class _GangWarp(LaneCore):
    """One warp position of M blocks executing in lockstep.

    Instruction semantics and per-member stat vectors come from
    :class:`~repro.gpusim.semantics.LaneCore`; this class adds the gang
    scheduler (splitting, the shared IPDOM stack) and trace hooks.
    """

    __slots__ = ("wid", "ctxs", "lane_mask", "stack", "finished",
                 "at_barrier", "_rec", "_trace", "_trace_pos")

    def __init__(self, batch: _Batch, wid: int, ctxs: List[_BlockCtx]):
        M = len(ctxs)
        base_specials, row_mask = batch.proto.warps[wid]
        specials = dict(base_specials)
        for axis, key in enumerate(_CTAID_KEYS):
            specials[key] = np.array(
                [c.block_idx[axis] for c in ctxs],
                np.uint32).reshape(M, 1)
        self._init_core(batch, np.array([c.slot for c in ctxs], np.int64),
                        specials)
        self.wid = wid
        self.ctxs = ctxs
        self.lane_mask = np.broadcast_to(row_mask, (M, WARP)).copy()
        self.stack: List[list] = [
            [batch.plan.n, self.lane_mask.copy(), 0, True]]
        self.finished = not row_mask.any()
        self.at_barrier = False
        self._rec = None
        self._trace = None
        self._trace_pos = 0

    def finalize(self) -> None:
        for i, ctx in enumerate(self.ctxs):
            ctx.warp_stats[self.wid] = self._member_stats(i)

    # -- gang splitting ------------------------------------------------

    def _take(self, sel: np.ndarray) -> "_GangWarp":
        """A new fragment holding the ``sel`` member rows (copies)."""
        sib = object.__new__(_GangWarp)
        sib.batch = self.batch
        sib.wid = self.wid
        sib.ctxs = [c for c, s in zip(self.ctxs, sel) if s]
        sib.M = len(sib.ctxs)
        sib.slots = self.slots[sel]
        sib.lane_mask = self.lane_mask[sel]
        # Row-uniform registers may be stored as single-row (WARP,)
        # arrays (see trace.py); row selection on those is identity.
        sib.regs = [r if r is None or r.ndim == 1 else r[sel]
                    for r in self.regs]
        sib.stack = [[e[0], e[1][sel], e[2], e[3]] for e in self.stack]
        specials = dict(self.specials)
        for key in _CTAID_KEYS:
            specials[key] = specials[key][sel]
        sib.specials = specials
        sib.outstanding = dict(self.outstanding)
        sib.locals_ = ([m for m, s in zip(self.locals_, sel) if s]
                       if self.locals_ else None)
        sib.finished = self.finished
        sib.at_barrier = self.at_barrier
        # Recordings follow the parent fragment, and a sibling split
        # off by a replay guard is deoptimized by its caller; either
        # way the sibling starts with clean trace state.
        sib._rec = None
        sib._trace = None
        sib._trace_pos = 0
        sib._sbase = {}
        for name in MEMBER_STATS:
            setattr(sib, name, getattr(self, name)[sel])
        for name in FRAGMENT_STATS:
            setattr(sib, name, getattr(self, name))
        return sib

    def _narrow(self, sel: np.ndarray) -> None:
        """Restrict this fragment to the ``sel`` member rows in place."""
        self.ctxs = [c for c, s in zip(self.ctxs, sel) if s]
        self.M = len(self.ctxs)
        self.slots = self.slots[sel]
        self.lane_mask = self.lane_mask[sel]
        self._sbase = {}
        self.regs = [r if r is None or r.ndim == 1 else r[sel]
                     for r in self.regs]
        for e in self.stack:
            e[1] = e[1][sel]
        for key in _CTAID_KEYS:
            self.specials[key] = self.specials[key][sel]
        if self.locals_:
            self.locals_ = [m for m, s in zip(self.locals_, sel) if s]
        for name in MEMBER_STATS:
            setattr(self, name, getattr(self, name)[sel])

    # -- main loop -----------------------------------------------------

    def run_quantum(self) -> List["_GangWarp"]:
        """Execute until barrier or completion.

        Returns fragments split off along the way; each still needs its
        own ``run_quantum`` this scheduling round.
        """
        batch = self.batch
        spawned: List[_GangWarp] = []
        if batch.traced:
            # Replay guards may split nonconforming members into
            # ``spawned`` even when the remainder deoptimizes back to
            # the interpreter below.
            status = gang_trace.quantum_enter(self, spawned)
            if status is not None:
                return spawned
        plan = batch.plan
        instrs = plan.instrs
        n = plan.n
        while True:
            if not self.stack:
                self.finished = True
                return spawned
            top = self.stack[-1]
            reconv, mask, pc, covers = top[0], top[1], top[2], top[3]
            if not covers:
                any_rows = mask.any(axis=1)
                if not any_rows.all():
                    if self._rec is not None:
                        # Partial-exit splits have no straight-line form.
                        gang_trace.abort_recording(self)
                    if not any_rows.any():
                        self.stack.pop()
                        continue
                    # Some blocks' masks emptied (exit under
                    # divergence): they pop this entry, the rest do not.
                    sib = self._take(~any_rows)
                    self._narrow(any_rows)
                    spawned.append(sib)
                    continue
            if pc == reconv or pc >= n:
                self.stack.pop()
                if self.stack:
                    if self._rec is not None:
                        self._rec.events.append(("pop",))
                    continue
                if self._rec is not None:
                    self._rec.events.append(("fin",))
                    gang_trace.finish_recording(self)
                self.finished = True
                return spawned
            p = instrs[pc]
            op = p.op
            if self.outstanding:
                self._score_read(p)
            exec_mask = mask
            exec_covers = covers
            if p.pred >= 0 and op != "bra":
                pred = self.regs[p.pred]
                if pred is None:
                    pred = np.zeros((self.M, WARP), dtype=bool)
                exec_mask = mask & self._full(pred != p.pred_neg)
                exec_covers = False
            if op == "bra":
                self._charge_issue(p.cost)
                self.instructions += 1
                self._branch(p, top, mask, pc, spawned)
                continue
            if op == "bar":
                if not covers or not (mask == self.lane_mask).all():
                    raise SimError(
                        "__syncthreads() reached in divergent code — "
                        "undefined behaviour in CUDA, rejected here")
                self._charge_issue(p.cost
                                   or batch.device.issue_cost["bar"])
                self.instructions += 1
                self.barriers += 1
                self.outstanding.clear()
                top[2] = pc + 1
                self.at_barrier = True
                if self._rec is not None:
                    self._rec.events.append(("bar", pc))
                return spawned
            if op == "exit":
                if self._rec is not None:
                    if (mask == self.lane_mask).all():
                        # Whole-warp exit: a clean trace terminator.
                        self._rec.events.append(("exit", pc))
                        gang_trace.finish_recording(self)
                    else:
                        gang_trace.abort_recording(self)
                self._terminate(mask)
                continue
            self._execute(p, exec_mask, exec_covers)
            top[2] = pc + 1
            if self._rec is not None:
                self._rec.events.append(("x", pc, covers))
                if len(self._rec.events) > gang_trace.MAX_EVENTS:
                    gang_trace.abort_recording(self)

    def _terminate(self, mask: np.ndarray) -> None:
        self.lane_mask = self.lane_mask & ~mask
        for entry in self.stack:
            entry[1] = entry[1] & ~mask
            entry[3] = False

    def _branch(self, p: PlannedInstr, top, mask, pc,
                spawned: List["_GangWarp"]) -> None:
        if p.pred < 0:
            if self._rec is not None:
                self._rec.events.append(("ub", pc))
            top[2] = p.target
            return
        pred = self.regs[p.pred]
        if pred is None:
            pred = np.zeros((self.M, WARP), dtype=bool)
        lane_take = self._full(pred != p.pred_neg)
        taken = mask & lane_take
        fall = mask & ~lane_take
        t_any = taken.any(axis=1)
        f_any = fall.any(axis=1)
        # Per-member branch classes, mirroring the serial decisions:
        # no lane taken -> fall through; all active lanes taken ->
        # jump; otherwise diverge through the IPDOM stack.
        groups = [(sel, kind) for sel, kind in
                  ((~t_any, "fall"), (t_any & ~f_any, "taken"),
                   (t_any & f_any, "div"))
                  if sel.any()]
        if len(groups) == 1:
            if self._rec is not None:
                self._rec.events.append(("br", pc, groups[0][1]))
            self._apply_branch(groups[0][1], top, taken, fall, pc,
                               p.target)
            return
        # Blocks disagree: split the gang, largest class stays here.
        groups.sort(key=lambda g: int(g[0].sum()), reverse=True)
        keep_sel, keep_kind = groups[0]
        if self._rec is not None:
            # Members disagree on the branch class.  The recorder
            # follows the surviving (largest) fragment: the events so
            # far are common to every member, and from here the trace
            # records the survivor's straight-line path.  Replay
            # guards split nonconforming members off the same way.
            self._rec.events.append(("br", pc, keep_kind))
        for sel, kind in groups[1:]:
            sib = self._take(sel)
            sib._apply_branch(kind, sib.stack[-1], taken[sel],
                              fall[sel], pc, p.target)
            spawned.append(sib)
        self._narrow(keep_sel)
        self._apply_branch(keep_kind, self.stack[-1], taken[keep_sel],
                           fall[keep_sel], pc, p.target)

    def _apply_branch(self, kind: str, top, taken, fall, pc,
                      target) -> None:
        if kind == "fall":
            top[2] = pc + 1
            return
        if kind == "taken":
            top[2] = target
            return
        self.divergent_branches += 1
        reconv = self.batch.ipdom.get(pc, self.batch.plan.n)
        top[2] = reconv  # the join resumes here with the full mask
        self.stack.append([reconv, fall, pc + 1, False])
        self.stack.append([reconv, taken, target, False])
