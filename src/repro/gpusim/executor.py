"""Warp-vectorized SIMT interpreter.

Executes one thread block of a compiled kernel the way an SM does:
warps of 32 lanes run in lockstep over NumPy lane-arrays; divergence is
handled with the standard immediate-post-dominator reconvergence stack;
``bar.sync`` rendezvous suspends warps until the whole block arrives.

For speed, kernels are first lowered to an execution *plan*
(:class:`KernelPlan`): virtual registers become integer indices into a
flat list, immediate operands become pre-broadcast lane arrays, branch
targets become instruction indices, and issue costs are resolved
against the device model once.  The interpreter then dispatches on
plain tuples — no IR-object hashing in the hot loop.

While executing, each warp accumulates the micro-architectural event
counts the timing model consumes: issue cycles, global-memory
transactions (via the coalescing rules), shared-memory bank replays,
and scoreboard stalls (a read of a register with an outstanding load).
The scoreboard is what makes register blocking pay off in the simulator
exactly as on hardware: batching independent loads ahead of their uses
removes stall events, trading thread-level for instruction-level
parallelism (§2.3 of the dissertation).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec, cost_class
from repro.gpusim.memory import FlatMemory, GlobalMemory
# WARP, SimError and WarpStats are defined by the semantics core and
# re-exported here for the modules and tests that import them from
# the executor.
from repro.gpusim.semantics import (WARP, BlockResources, LaneCore,
                                    SimError, WarpStats)
from repro.kernelc.cfg import CFG
from repro.kernelc.ir import Imm, Instr, IRKernel, Reg, Special

#: Latency charged per scoreboard stall on a shared-memory load.
SHARED_LATENCY = 30


@dataclass
class BlockStats:
    """Aggregated per-block statistics."""

    warps: List[WarpStats] = field(default_factory=list)

    @property
    def issue_cycles(self) -> float:
        return sum(w.issue_cycles for w in self.warps)

    @property
    def mem_bytes(self) -> int:
        return sum(w.mem_bytes for w in self.warps)

    @property
    def mem_transactions(self) -> int:
        return sum(w.mem_transactions for w in self.warps)

    @property
    def instructions(self) -> int:
        return sum(w.instructions for w in self.warps)

    def latency_bound(self, device: DeviceSpec) -> float:
        """Serial completion time of the slowest warp (cycles)."""
        bound = 0.0
        for w in self.warps:
            cycles = (w.issue_cycles
                      + w.global_stalls * device.mem_latency
                      + w.shared_stalls * SHARED_LATENCY)
            bound = max(bound, cycles)
        return bound


class PlannedInstr:
    """One instruction, pre-resolved for fast interpretation."""

    __slots__ = ("op", "ctype", "np_dtype", "itemsize", "cmp", "space",
                 "target", "pred", "pred_neg", "dst", "dst_dtype",
                 "srcs", "reg_srcs", "cost", "param_name", "is_bool")

    def __init__(self):
        self.pred = -1
        self.pred_neg = False
        self.dst = -1
        self.target = -1
        self.param_name = None


class KernelPlan:
    """Pre-computed execution structures shared across blocks."""

    def __init__(self, kernel: IRKernel, device: DeviceSpec):
        # Weak so a cached plan never pins a dead kernel module.
        self._kernel_ref = weakref.ref(kernel)
        self.device = device
        cfg = CFG(kernel)
        self.label_index = cfg.label_index
        self.ipdom = cfg.ipdom_instr()
        self._reg_index: Dict[Reg, int] = {}
        self._reg_dtypes: List[np.dtype] = []
        self.instrs: List[PlannedInstr] = [
            self._plan(i) for i in cfg.instrs]
        self.n_regs = len(self._reg_dtypes)
        self.n = len(self.instrs)
        # Gang prototypes (repro.gpusim.engine): per-(block_dim,
        # grid_dim) warp lane layouts reused across launches.  Stored
        # on the plan so their lifetime rides the plan cache — evicted
        # together when the kernel IR dies or the cache is cleared.
        self.gang_protos: Dict[Tuple, object] = {}
        # Compiled gang traces (repro.gpusim.trace): keyed
        # (entry_pc, active-lane signature).  Riding the plan gives
        # traces the same lifetime/eviction story as gang prototypes.
        self.traces: Dict[Tuple, object] = {}
        #: Failed recording attempts per trace key; keys that keep
        #: aborting (member divergence every run) stop being retried.
        self.trace_aborts: Dict[Tuple, int] = {}
        #: Keys with a recording in flight this batch, so sibling
        #: warps don't redundantly record the same region.
        self.trace_pending = set()
        #: Memoized single-row shared-memory conflict factors/indices
        #: for the trace engine's row-uniform fast path, keyed by raw
        #: address/mask bytes (patterns are tid-derived and recur).
        self.shared_rows: Dict[Tuple, Tuple] = {}
        #: Memoized whole-gang shared factors/indices for patterns no
        #: row canonicalisation collapses (ctaid-derived addressing);
        #: geometry functions, so they recur across launches.
        self.shared_pats: Dict[Tuple, Tuple] = {}
        #: Memoized global coalescing/index results keyed by 256-byte
        #: base-relative address bytes, so per-run allocations (the
        #: bump allocator never reuses addresses) still hit.
        self.global_pats: Dict[Tuple, Tuple] = {}

    @property
    def kernel(self) -> Optional[IRKernel]:
        return self._kernel_ref()

    def _reg(self, reg: Reg) -> int:
        idx = self._reg_index.get(reg)
        if idx is None:
            idx = len(self._reg_dtypes)
            self._reg_index[reg] = idx
            self._reg_dtypes.append(reg.ctype.np_dtype())
        return idx

    def _operand(self, operand, want_dtype: Optional[np.dtype]):
        """-> ('r', idx, cast_or_None) | ('c', array) | ('s', name)."""
        if isinstance(operand, Reg):
            idx = self._reg(operand)
            have = operand.ctype.np_dtype()
            cast = want_dtype if (want_dtype is not None
                                  and have != want_dtype) else None
            return ("r", idx, cast)
        if isinstance(operand, Imm):
            dtype = want_dtype or operand.ctype.np_dtype()
            arr = np.full(WARP, operand.value, dtype=dtype)
            arr.flags.writeable = False
            return ("c", arr, None)
        if isinstance(operand, Special):
            return ("s", operand.name, want_dtype)
        raise SimError(f"bad operand {operand!r}")

    def _plan(self, instr: Instr) -> PlannedInstr:
        p = PlannedInstr()
        p.op = instr.op
        p.ctype = instr.dtype
        p.cmp = instr.cmp
        p.space = instr.space
        p.is_bool = getattr(instr.dtype, "is_bool", False)
        try:
            p.np_dtype = instr.dtype.np_dtype()
        except (ValueError, KeyError):
            p.np_dtype = np.dtype(np.int32)
        p.itemsize = getattr(instr.dtype, "size", 4)
        if instr.pred is not None:
            p.pred = self._reg(instr.pred)
            p.pred_neg = instr.pred_neg
        if instr.dst is not None:
            p.dst = self._reg(instr.dst)
            p.dst_dtype = instr.dst.ctype.np_dtype()
        else:
            p.dst_dtype = p.np_dtype
        if instr.op == "bra":
            p.target = self.label_index[instr.target]
        # Per-position operand target dtypes.
        want: List[Optional[np.dtype]] = []
        if instr.op in ("cvt",):
            want = [None]
        elif instr.op in ("shl", "shr"):
            want = [p.np_dtype, None]
        elif instr.op == "selp":
            want = [p.np_dtype, p.np_dtype, None]
        elif instr.op == "tex":
            p.param_name = instr.srcs[0].name
            coord_np = np.dtype(np.int32) if instr.cmp == "1d" \
                else np.dtype(np.float32)
            p.srcs = tuple(self._operand(s, coord_np)
                           for s in instr.srcs[1:])
            p.reg_srcs = tuple(d[1] for d in p.srcs if d[0] == "r")
            p.cost = 0.0
            return p
        elif instr.op == "ld":
            want = [None]
            if instr.space == "param" and isinstance(instr.srcs[0],
                                                     Special):
                p.param_name = instr.srcs[0].name
        elif instr.op in ("st", "atom"):
            want = [None, p.np_dtype]
        else:
            want = [p.np_dtype] * len(instr.srcs)
        p.srcs = tuple(self._operand(s, w)
                       for s, w in zip(instr.srcs, want))
        reg_srcs = [d[1] for d in p.srcs if d[0] == "r"]
        if p.pred >= 0:
            reg_srcs.append(p.pred)
        p.reg_srcs = tuple(reg_srcs)
        if instr.op in ("ld", "st", "atom"):
            if instr.space == "param":
                p.cost = self.device.issue_cost["shared"]
            else:
                p.cost = 0.0  # memory costs computed per access
        else:
            p.cost = self.device.issue_cost[
                cost_class(instr.op, instr.dtype, instr.cmp)]
        return p


def _ctx(ctx):
    if ctx is None:
        from repro.runtime.context import current_context
        ctx = current_context()
    return ctx


def plan_for(kernel: IRKernel, device: DeviceSpec,
             ctx=None) -> KernelPlan:
    """A (cached) :class:`KernelPlan` for *kernel* on *device*.

    Sweeps launch the same kernel thousands of times; planning is pure
    per ``(kernel identity, device)``, so it is paid once here.  The
    cache lives on the :class:`~repro.runtime.context.ExecutionContext`
    (*ctx*, default current): entries key on ``(id(kernel_ir),
    device.name)`` and are evicted by a weakref finalizer when the
    kernel IR dies, so a recycled ``id()`` can never alias a stale
    plan.
    """
    ctx = _ctx(ctx)
    key = (id(kernel), device.name)
    plan = ctx.plan_cache.get(key)
    if plan is not None and plan.kernel is kernel:
        ctx.plan_stats["hits"] += 1
        return plan
    ctx.plan_stats["misses"] += 1
    tracer = ctx.tracer
    if tracer is not None:
        with tracer.span(f"plan:{kernel.name}", "plan",
                         device=device.name):
            plan = KernelPlan(kernel, device)
    else:
        plan = KernelPlan(kernel, device)
    ctx.plan_cache[key] = plan
    weakref.finalize(kernel, ctx.plan_cache.pop, key, None)
    return plan


def plan_cache_stats(ctx=None) -> Dict[str, int]:
    """Hit/miss counters plus cache size for *ctx* (default current)."""
    ctx = _ctx(ctx)
    return dict(ctx.plan_stats, size=len(ctx.plan_cache))


def clear_plan_cache(ctx=None) -> None:
    """Drop *ctx*'s cached plans and reset its counters (for tests)."""
    ctx = _ctx(ctx)
    ctx.clear_plan_cache()
    ctx.plan_stats["hits"] = 0
    ctx.plan_stats["misses"] = 0


class LaneLayout:
    """Launch-shape lane state shared by every block of a launch.

    Everything a warp needs that depends only on ``(block_dim,
    grid_dim)`` — the per-warp-position special-register lane arrays
    (all but ``ctaid.*``, which are per-block data) and each warp
    position's partial-block row mask.  The serial block builds one
    per run; the gang engine caches them on the :class:`KernelPlan`
    as gang prototypes, so repeated launches of one kernel — a
    sweep's sampled launches in particular — reuse the lane layout
    instead of rebuilding it per launch.
    """

    __slots__ = ("nthreads", "nwarps", "warps")

    def __init__(self, device: DeviceSpec, block_dim, grid_dim):
        bx, by, bz = block_dim
        self.nthreads = bx * by * bz
        if self.nthreads > device.max_threads_per_block:
            raise SimError(
                f"block of {self.nthreads} threads exceeds device limit "
                f"{device.max_threads_per_block}")
        self.nwarps = (self.nthreads + WARP - 1) // WARP
        gx, gy, gz = grid_dim
        self.warps = []
        for wid in range(self.nwarps):
            tids = (wid * WARP
                    + np.arange(WARP, dtype=np.uint32)).astype(np.uint32)
            row_mask = tids < self.nthreads
            safe = np.where(row_mask, tids, 0)
            specials = {
                "tid.x": (safe % bx).astype(np.uint32),
                "tid.y": ((safe // bx) % by).astype(np.uint32),
                "tid.z": (safe // (bx * by)).astype(np.uint32),
                "ntid.x": np.full(WARP, bx, np.uint32),
                "ntid.y": np.full(WARP, by, np.uint32),
                "ntid.z": np.full(WARP, bz, np.uint32),
                "nctaid.x": np.full(WARP, gx, np.uint32),
                "nctaid.y": np.full(WARP, gy, np.uint32),
                "nctaid.z": np.full(WARP, gz, np.uint32),
            }
            for arr in specials.values():
                arr.flags.writeable = False
            row_mask.flags.writeable = False
            self.warps.append((specials, row_mask))


_CTAID_KEYS = ("ctaid.x", "ctaid.y", "ctaid.z")


class _Warp(LaneCore):
    """Execution state of one warp: the semantics core at one member.

    Lane state is ``(1, 32)``.  The scheduler here — the IPDOM stack,
    branches, exits and barriers — is the serial engine's own, so the
    serial ≡ batched suites compare it against the gang's splitting
    scheduler; what instructions compute and cost comes from
    :class:`~repro.gpusim.semantics.LaneCore`.
    """

    __slots__ = ("wid", "lane_mask", "stack", "finished", "at_barrier")

    def __init__(self, block: "BlockExecutor", wid: int,
                 lane_mask: np.ndarray, specials: Dict[str, np.ndarray]):
        self._init_core(block, _SLOT0, specials)
        self.wid = wid
        self.lane_mask = lane_mask
        # SIMT stack entries: [reconv_pc, mask, pc, covers_warp]
        self.stack: List[List] = [
            [block.plan.n, lane_mask.copy(), 0, True]]
        self.finished = not lane_mask.any()
        self.at_barrier = False

    # -- main loop -----------------------------------------------------

    def run(self) -> str:
        """Execute until barrier ('bar') or completion ('exit')."""
        block = self.batch
        plan = block.plan
        instrs = plan.instrs
        n = plan.n
        outstanding = self.outstanding
        while True:
            if not self.stack:
                self.finished = True
                return "exit"
            top = self.stack[-1]
            reconv, mask, pc, covers = top[0], top[1], top[2], top[3]
            if not covers and not mask.any():
                self.stack.pop()
                continue
            if pc == reconv or pc >= n:
                self.stack.pop()
                if self.stack:
                    continue
                self.finished = True
                return "exit"
            p = instrs[pc]
            op = p.op
            if outstanding:
                self._score_read(p)
            exec_mask = mask
            exec_covers = covers
            if p.pred >= 0 and op != "bra":
                exec_mask = mask & self._pred_take(p)
                exec_covers = False
            if op == "bra":
                self._charge_issue(p.cost)
                self.instructions += 1
                new_pc = self._branch(p, top, mask, pc)
                if new_pc is not None:
                    top[2] = new_pc
                continue
            if op == "bar":
                if not covers or not (mask == self.lane_mask).all():
                    raise SimError(
                        "__syncthreads() reached in divergent code — "
                        "undefined behaviour in CUDA, rejected here")
                self._charge_issue(p.cost
                                   or block.device.issue_cost["bar"])
                self.instructions += 1
                self.barriers += 1
                outstanding.clear()
                top[2] = pc + 1
                self.at_barrier = True
                return "bar"
            if op == "exit":
                self._terminate(mask)
                continue
            self._execute(p, exec_mask, exec_covers)
            top[2] = pc + 1

    def _pred_take(self, p: PlannedInstr) -> np.ndarray:
        pred = self.regs[p.pred]
        if pred is None:
            pred = np.zeros((1, WARP), dtype=bool)
        return pred != p.pred_neg

    def _terminate(self, mask: np.ndarray) -> None:
        self.lane_mask = self.lane_mask & ~mask
        for entry in self.stack:
            entry[1] = entry[1] & ~mask
            entry[3] = False

    def _branch(self, p: PlannedInstr, top, mask, pc) -> Optional[int]:
        if p.pred < 0:
            return p.target
        lane_take = self._pred_take(p)
        taken = mask & lane_take
        fall = mask & ~lane_take
        any_taken = bool(taken.any())
        any_fall = bool(fall.any())
        if not any_taken:
            return pc + 1
        if not any_fall:
            return p.target
        # Divergence: reconverge at the immediate post-dominator.
        self.divergent_branches += 1
        reconv = self.batch.ipdom.get(pc, self.batch.plan.n)
        top[2] = reconv  # the join resumes here with the full mask
        self.stack.append([reconv, fall, pc + 1, False])
        self.stack.append([reconv, taken, p.target, False])
        return None


#: The serial block's only shared-memory slot.
_SLOT0 = np.zeros(1, np.int64)


@dataclass(frozen=True)
class TextureBinding:
    """Host-side texture binding (cudaBindTexture[2D])."""

    addr: int
    width: int
    height: int = 1
    np_dtype: object = np.float32
    address: str = "clamp"
    filter: str = "point"


class BlockExecutor(BlockResources):
    """Executes one thread block and returns its statistics."""

    def __init__(self, kernel: IRKernel, device: DeviceSpec,
                 gmem: GlobalMemory, cmem: FlatMemory,
                 args: Dict[str, object], block_idx: Tuple[int, int, int],
                 block_dim: Tuple[int, int, int],
                 grid_dim: Tuple[int, int, int],
                 dynamic_smem: int = 0,
                 plan: Optional[KernelPlan] = None,
                 textures: Optional[Dict[str, "TextureBinding"]] = None):
        self.kernel = kernel
        self.device = device
        self.gmem = gmem
        self.cmem = cmem
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        if plan is None:
            plan = KernelPlan(kernel, device)
        self.plan = plan
        self.ipdom = plan.ipdom
        self._init_resources(args, textures,
                             kernel.shared_bytes + dynamic_smem, 1)

    def run(self) -> BlockStats:
        layout = LaneLayout(self.device, self.block_dim, self.grid_dim)
        ctaid = {key: np.full((1, 1), idx, np.uint32)
                 for key, idx in zip(_CTAID_KEYS, self.block_idx)}
        warps = [_Warp(self, wid, row_mask.reshape(1, WARP),
                       {**specials, **ctaid})
                 for wid, (specials, row_mask) in enumerate(layout.warps)]

        # Round-robin with barrier rendezvous.  One errstate covers
        # the whole block: simulated kernels wrap/overflow like HW.
        guard = 0
        limit = 10_000_000
        ctx = np.errstate(all="ignore")
        ctx.__enter__()
        try:
            self._scheduler_loop(warps, guard, limit)
        finally:
            ctx.__exit__(None, None, None)
        return BlockStats(warps=[w._member_stats(0) for w in warps])

    def _scheduler_loop(self, warps, guard, limit):
        while True:
            guard += 1
            if guard > limit:
                raise SimError("block execution did not terminate "
                               "(runaway loop in kernel?)")
            running = [w for w in warps if not w.finished
                       and not w.at_barrier]
            if not running:
                waiting = [w for w in warps if w.at_barrier]
                if not waiting:
                    break
                for w in waiting:
                    w.at_barrier = False
                continue
            for w in running:
                w.run()
