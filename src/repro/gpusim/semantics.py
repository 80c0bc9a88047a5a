"""The one definition of instruction semantics for every SIMT engine.

Both interpreters run warps through this module: the serial oracle
(:class:`repro.gpusim.executor._Warp`, one block, M = 1) and the
batched gang (:class:`repro.gpusim.engine._GangWarp`, M blocks in
lockstep), and the trace-JIT (:mod:`repro.gpusim.trace`) calls back
into it for every memory and texture operation it does not inline.
What an instruction *computes* and what it *costs* is therefore
written once, the way an emulator over plain arrays can be the living
definition of an instruction set:

* lane state is ``(M, 32)`` NumPy arrays, one row per member block;
  row-uniform values (constants, parameters, ``tid``-derived specials)
  may stay single ``(32,)`` rows and broadcast lazily;
* the counters memory costs feed are per-member vectors
  (:data:`MEMBER_STATS`), added to in the same order for every engine,
  so float issue-cycle totals match bit for bit whichever engine ran a
  block; the rest count events every member shares
  (:data:`FRAGMENT_STATS`) and are plain ints;
* memory accounting uses the batch forms of the
  :mod:`repro.gpusim.coalescing` models.

The engines keep what really differs between them — scheduling, the
IPDOM reconvergence stack, gang splitting, barriers — and supply the
block resources the core reads through ``self.batch`` (a
:class:`BlockResources`: device, plan, memories, parameters, textures
and the stacked shared memory).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpusim import coalescing
from repro.gpusim.memory import FlatMemory, MemoryError_

WARP = 32


class SimError(Exception):
    """Runtime fault in the simulated kernel (bad access, bad sync...)."""


@dataclass
class WarpStats:
    """Per-warp event counters for the timing model."""

    issue_cycles: float = 0.0
    instructions: int = 0
    mem_transactions: int = 0
    mem_bytes: int = 0
    global_stalls: int = 0
    shared_stalls: int = 0
    barriers: int = 0
    divergent_branches: int = 0
    atomics: int = 0


#: :class:`WarpStats` fields a warp carries as ``(M,)`` vectors: what a
#: memory access costs differs between member blocks.
MEMBER_STATS = ("issue_cycles", "mem_transactions", "mem_bytes")
#: The other fields, Python ints: every member of a warp fragment
#: executes the same instructions, branches, barriers and scoreboard
#: stalls (members that disagree are split into separate fragments).
#: Every engine counts both kinds in :class:`LaneCore`, so a stat added
#: to WarpStats is counted once, here, for all of them.
FRAGMENT_STATS = tuple(f.name for f in fields(WarpStats)
                       if f.name not in MEMBER_STATS)

_LANE_IDS = np.arange(WARP, dtype=np.int64)


class BlockResources:
    """Launch resources a warp's core reads through ``self.batch``.

    Shared by the serial block (one member) and the gang batch (M
    members).  Shared memory is one stacked byte buffer with a row per
    member block (slot), each row padded to 16 bytes so any element
    dtype tiles it exactly; a member's accesses are offset into its
    row.  Subclasses also provide ``device``, ``plan``, ``ipdom``,
    ``kernel``, ``gmem`` and ``cmem``.
    """

    def _init_resources(self, args, textures, smem_bytes: int,
                        n_slots: int) -> None:
        self.args = args
        self.textures = textures or {}
        self._param_arrays: Dict[Tuple[str, str], np.ndarray] = {}
        self.smem_bytes = smem_bytes
        self.smem_row = max((smem_bytes + 15) // 16 * 16, 16)
        self.smem_stack = np.zeros(n_slots * self.smem_row, np.uint8)
        self._smem_views: Dict = {}

    def smem_view(self, dtype) -> np.ndarray:
        """A typed view of the whole shared-memory stack.

        Keyed by the dtype object itself: distinct spellings of one
        dtype just memoize separate (identical) views, and the
        ``np.dtype(...).str`` normalisation cost stays off the hot
        path.
        """
        view = self._smem_views.get(dtype)
        if view is None:
            view = self.smem_stack.view(dtype)
            self._smem_views[dtype] = view
        return view

    def texture_binding(self, name: str):
        binding = self.textures.get(name)
        if binding is None:
            raise SimError(
                f"texture {name!r} is not bound — call "
                "GPU.bind_texture() before launching")
        return binding

    def param_array(self, name: str, dtype) -> np.ndarray:
        key = (name, np.dtype(dtype).str)
        arr = self._param_arrays.get(key)
        if arr is None:
            try:
                value = self.args[name]
            except KeyError:
                raise SimError(
                    f"kernel argument {name!r} was not supplied")
            arr = np.full(WARP, value, dtype=dtype)
            arr.flags.writeable = False
            self._param_arrays[key] = arr
        return arr


class LaneCore:
    """Per-instruction semantics of one warp position over M members.

    A subclass sets the state up with :meth:`_init_core` and drives
    :meth:`_execute` from its own scheduler; ``self.batch`` is its
    :class:`BlockResources`.
    """

    __slots__ = (("batch", "M", "slots", "regs", "specials",
                  "outstanding", "locals_", "_sbase")
                 + MEMBER_STATS + FRAGMENT_STATS)

    def _init_core(self, batch: BlockResources, slots: np.ndarray,
                   specials: Dict[str, np.ndarray]) -> None:
        self.batch = batch
        self.M = M = len(slots)
        self.slots = slots
        self.regs: List[Optional[np.ndarray]] = [None] * batch.plan.n_regs
        self.specials = specials
        self.outstanding: Dict[int, str] = {}
        local_bytes = batch.kernel.local_bytes
        self.locals_ = ([FlatMemory(local_bytes * WARP, "local")
                         for _ in range(M)] if local_bytes else None)
        #: Per-itemsize shared-memory row bases (:meth:`_slot_base`);
        #: derived from ``slots``, so splitting a gang resets it.
        self._sbase: Dict[int, np.ndarray] = {}
        self.issue_cycles = np.zeros(M, np.float64)
        self.mem_transactions = np.zeros(M, np.int64)
        self.mem_bytes = np.zeros(M, np.int64)
        for name in FRAGMENT_STATS:
            setattr(self, name, 0)

    def _member_stats(self, i: int) -> WarpStats:
        """Member *i*'s counters as a :class:`WarpStats`."""
        return WarpStats(
            issue_cycles=float(self.issue_cycles[i]),
            mem_transactions=int(self.mem_transactions[i]),
            mem_bytes=int(self.mem_bytes[i]),
            **{name: getattr(self, name) for name in FRAGMENT_STATS})

    # -- operand plumbing ----------------------------------------------

    def _read(self, desc) -> np.ndarray:
        kind, payload, cast = desc
        if kind == "r":
            arr = self.regs[payload]
            if arr is None:
                arr = np.zeros((self.M, WARP),
                               dtype=self.batch.plan._reg_dtypes[payload])
                self.regs[payload] = arr
            if cast is not None:
                return arr.astype(cast)
            return arr
        if kind == "c":
            return payload
        arr = self.specials[payload]
        if cast is not None and arr.dtype != cast:
            return arr.astype(cast)
        return arr

    def _write(self, p, value: np.ndarray, mask: np.ndarray,
               covers: bool) -> None:
        if value.dtype != p.dst_dtype:
            value = value.astype(p.dst_dtype)
        if covers:
            # Stored as computed: a row-uniform (32,) or per-member
            # (M, 1) value broadcasts wherever it is read.
            self.regs[p.dst] = value
        else:
            old = self.regs[p.dst]
            if old is None:
                old = np.zeros((self.M, WARP), dtype=p.dst_dtype)
            self.regs[p.dst] = np.where(mask, value, old)

    def _full(self, arr: np.ndarray) -> np.ndarray:
        """Broadcast a lane array to the warp's (M, 32) shape."""
        if arr.shape != (self.M, WARP):
            # One row of one member is a plain (and far cheaper) view.
            arr = (arr[None] if self.M == 1 and arr.ndim == 1
                   else np.broadcast_to(arr, (self.M, WARP)))
        return arr

    def _charge_issue(self, cycles: float) -> None:
        """Add one issue cost to every member's cycle count."""
        if self.M == 1:
            # Same float64 add; a scalar update skips a NumPy call.
            self.issue_cycles[0] += cycles
        else:
            self.issue_cycles += cycles

    def _score_read(self, p) -> None:
        """Scoreboard: reading a register with a load in flight stalls."""
        outstanding = self.outstanding
        waited_g = waited_s = False
        for idx in p.reg_srcs:
            kind = outstanding.get(idx)
            if kind is not None:
                waited_g |= kind == "g"
                waited_s |= kind == "s"
        if waited_g:
            self.global_stalls += 1
            outstanding.clear()
        elif waited_s:
            self.shared_stalls += 1
            outstanding.clear()

    # -- instruction semantics -----------------------------------------

    def _execute(self, p, mask: np.ndarray, covers: bool) -> None:
        op = p.op
        self.instructions += 1
        if op in ("ld", "st", "atom"):
            self._memory(p, mask, covers)
            return
        if op == "tex":
            self._tex(p, mask, covers)
            return
        self._charge_issue(p.cost)
        if not covers and not mask.any():
            return
        srcs = p.srcs
        if op == "mov":
            self._write(p, self._read(srcs[0]), mask, covers)
            return
        if op == "add":
            self._write(p, self._read(srcs[0]) + self._read(srcs[1]),
                        mask, covers)
            return
        if op == "mul":
            self._write(p, self._read(srcs[0]) * self._read(srcs[1]),
                        mask, covers)
            return
        if op == "sub":
            self._write(p, self._read(srcs[0]) - self._read(srcs[1]),
                        mask, covers)
            return
        if op == "setp":
            a = self._read(srcs[0])
            b = self._read(srcs[1])
            self._write(p, _CMP_FN[p.cmp](a, b), mask, covers)
            return
        if op == "selp":
            a = self._read(srcs[0])
            b = self._read(srcs[1])
            sel = self._read(srcs[2])
            self._write(p, np.where(sel, a, b), mask, covers)
            return
        if op == "cvt":
            self._cvt(p, mask, covers)
            return
        if op in _BINARY:
            a = self._read(srcs[0])
            b = self._read(srcs[1])
            if p.is_bool and op in _LOGICAL:
                self._write(p, _LOGICAL[op](a, b), mask, covers)
                return
            self._write(p, _BINARY[op](a, b, p), mask, covers)
            return
        if op in ("mad", "fma"):
            a = self._read(srcs[0])
            b = self._read(srcs[1])
            c = self._read(srcs[2])
            self._write(p, a * b + c, mask, covers)
            return
        if op in _UNARY:
            a = self._read(srcs[0])
            if op == "not" and p.is_bool:
                self._write(p, np.logical_not(a), mask, covers)
                return
            self._write(p, _UNARY[op](a, p), mask, covers)
            return
        raise SimError(f"unimplemented opcode {op!r}")

    def _cvt(self, p, mask, covers) -> None:
        """Float to integer rounds (``.rn``) or truncates, and a NaN or
        infinity converts to 0; everything else is a NumPy cast."""
        value = self._read(p.srcs[0])
        if p.ctype.is_integer and value.dtype.kind == "f":
            if p.cmp.endswith(".rn"):
                value = np.rint(value)
            else:
                value = np.trunc(value)
            value = np.where(np.isfinite(value), value, 0.0)
        self._write(p, value.astype(p.np_dtype), mask, covers)

    # -- memory --------------------------------------------------------

    def _memory(self, p, mask: np.ndarray, covers: bool) -> None:
        batch = self.batch
        device = batch.device
        space = p.space
        if space == "param":
            self._charge_issue(p.cost)
            self._write(p, batch.param_array(p.param_name, p.np_dtype),
                        mask, covers)
            return
        itemsize = p.itemsize
        addrs = self._full(self._read(p.srcs[0]))
        if addrs.dtype != np.uint64:
            addrs = addrs.astype(np.uint64)
        if p.op == "ld":
            value = self._do_load(space, addrs, p, mask)
            self._write(p, value, mask, covers)
            if space in ("global", "local"):
                self.outstanding[p.dst] = "g"
            elif space == "shared":
                self.outstanding[p.dst] = "s"
            return
        if p.op == "st":
            value = self._full(self._read(p.srcs[1]))
            self._do_store(space, addrs, value, p, mask)
            return
        # atom (only .add is generated)
        if space not in ("global", "shared"):
            raise SimError(f"atomicAdd on {space} memory")
        value = self._full(self._read(p.srcs[1]))
        if space == "global":
            mem = batch.gmem
            if mem._epoch is not None:
                mem.note_lanes(addrs, mask, itemsize)
            idx = mem.element_index(
                addrs.reshape(-1), itemsize,
                mask.reshape(-1)).reshape(self.M, WARP)
            old = _ordered_atomic_add(mem.view(p.np_dtype), idx, mask,
                                      value)
        else:
            # Member rows are disjoint in the stack, so reading every
            # old value before any add matches the per-member order.
            gidx = self._shared_index(addrs, mask, itemsize)
            view = batch.smem_view(p.np_dtype)
            old = view[gidx]
            np.add.at(view, gidx[mask], value[mask])
        self._write(p, old, mask, covers)
        self._charge_issue(device.issue_cost["atom"])
        self.atomics += 1
        if space == "global":
            txns = coalescing.global_transactions_batch(
                addrs, mask, itemsize, device)
            self.mem_transactions += txns
            self.mem_bytes += txns * 32
            self.outstanding.clear()
            self.global_stalls += 1  # atomics round-trip

    def _charge_global(self, txns: np.ndarray) -> None:
        """Bill a global load/store: transactions, bytes, issue."""
        device = self.batch.device
        self.mem_transactions += txns
        self.mem_bytes += txns * device.coalesce_line_bytes()
        self.issue_cycles += device.mem_issue_cost * np.maximum(txns, 1)

    def _shared_offsets(self, addrs, mask, itemsize) -> np.ndarray:
        """Element indices within each member's shared row, validated.

        Mirrors :meth:`FlatMemory.element_index` for every member at
        once (sizes and labels are uniform across a launch).
        """
        size = self.batch.smem_bytes
        offsets = np.where(mask, addrs.astype(np.int64), 0)
        if (offsets.min() < 0 or offsets.max() + itemsize > size
                or (offsets % itemsize).any()):
            # Inactive lanes read as offset 0: decide on active ones.
            active = offsets[mask]
            if (active < 0).any() or (active + itemsize > size).any():
                raise MemoryError_(
                    f"shared access out of bounds (size {size})")
            if (active % itemsize).any():
                raise MemoryError_("misaligned shared access")
        return offsets // itemsize

    def _slot_base(self, itemsize) -> np.ndarray:
        """Each member's first element in the shared stack, ``(M, 1)``."""
        base = self._sbase.get(itemsize)
        if base is None:
            base = (self.slots * (self.batch.smem_row // itemsize))[:, None]
            self._sbase[itemsize] = base
        return base

    def _shared_index(self, addrs, mask, itemsize) -> np.ndarray:
        """Element indices into the shared-memory stack, validated:
        each member's row offsets into its slot of the stack."""
        return (self._shared_offsets(addrs, mask, itemsize)
                + self._slot_base(itemsize))

    def _do_load(self, space, addrs, p, mask) -> np.ndarray:
        batch = self.batch
        device = batch.device
        itemsize = p.itemsize
        if space == "global":
            self._charge_global(coalescing.global_transactions_batch(
                addrs, mask, itemsize, device))
            mem = batch.gmem
            idx = mem.element_index(addrs.reshape(-1), itemsize,
                                    mask.reshape(-1))
            return mem.view(p.np_dtype)[idx].reshape(self.M, WARP)
        if space == "shared":
            factors = coalescing.shared_conflict_factors_batch(
                addrs, mask, itemsize, device)
            gidx = self._shared_index(addrs, mask, itemsize)
            self.issue_cycles += device.issue_cost["shared"] * factors
            return batch.smem_view(p.np_dtype)[gidx]
        if space == "const":
            # Distinct addresses per member (broadcast model); an
            # empty row pays the single-broadcast cost.
            distinct = np.maximum(coalescing._row_distinct(
                addrs.astype(np.int64), mask), 1)
            self.issue_cycles += device.issue_cost["shared"] * distinct
            mem = batch.cmem
            idx = mem.element_index(addrs.reshape(-1), itemsize,
                                    mask.reshape(-1))
            return mem.view(p.np_dtype)[idx].reshape(self.M, WARP)
        if space == "local":
            return self._local_access(addrs, None, p, mask)
        raise SimError(f"bad load space {space!r}")

    def _do_store(self, space, addrs, value, p, mask) -> None:
        batch = self.batch
        device = batch.device
        itemsize = p.itemsize
        if value.dtype != p.np_dtype:
            value = value.astype(p.np_dtype)
        if space == "global":
            self._charge_global(coalescing.global_transactions_batch(
                addrs, mask, itemsize, device))
            mem = batch.gmem
            if mem._epoch is not None:
                mem.note_lanes(addrs, mask, itemsize)
            flat_mask = mask.reshape(-1)
            idx = mem.element_index(addrs.reshape(-1), itemsize,
                                    flat_mask)
            flat_value = np.ascontiguousarray(value).reshape(-1)
            # Fancy assignment applies rows in member (= block) order,
            # so duplicate addresses resolve as block-at-a-time does.
            mem.view(p.np_dtype)[idx[flat_mask]] = flat_value[flat_mask]
            return
        if space == "shared":
            factors = coalescing.shared_conflict_factors_batch(
                addrs, mask, itemsize, device)
            gidx = self._shared_index(addrs, mask, itemsize)
            # Row-major flattening keeps lane order within each member,
            # so duplicate addresses resolve in lane order.
            batch.smem_view(p.np_dtype)[gidx[mask]] = value[mask]
            self.issue_cycles += device.issue_cost["shared"] * factors
            return
        if space == "local":
            self._local_access(addrs, value, p, mask)
            return
        if space == "const":
            raise SimError("stores to constant memory are illegal")
        raise SimError(f"bad store space {space!r}")

    def _tex(self, p, mask, covers) -> None:
        """Texture fetch through the (modelled) texture cache.

        Point or bilinear filtering with clamp/wrap/border addressing,
        per the bound :class:`~repro.gpusim.executor.TextureBinding`.
        Traffic is charged at half the raw-global transaction count —
        the 2D-local texture cache is why the era's kernels
        (backprojection included) read through textures.
        """
        batch = self.batch
        binding = batch.texture_binding(p.param_name)
        itemsize = np.dtype(binding.np_dtype).itemsize
        base_elem = batch.gmem.element_index(
            np.full(WARP, binding.addr, np.uint64), itemsize,
            np.ones(WARP, bool))[0]
        view = batch.gmem.view(binding.np_dtype)

        def fetch(ix, iy):
            ixa, okx = _tex_address(ix, binding.width, binding.address)
            if binding.height > 1:
                iya, oky = _tex_address(iy, binding.height,
                                        binding.address)
            else:
                iya, oky = np.zeros_like(ixa), np.ones_like(okx)
            flat = base_elem + iya * binding.width + ixa
            value = view[flat]
            if binding.address == "border":
                value = np.where(okx & oky, value, 0)
            return value

        if p.cmp == "1d":
            idx = self._full(self._read(p.srcs[0])).astype(np.int64)
            # tex1Dfetch: unfiltered element access (clamped here).
            value = fetch(idx, None)
        else:
            x = self._full(self._read(p.srcs[0])).astype(np.float64)
            y = self._full(self._read(p.srcs[1])).astype(np.float64)
            if binding.filter == "point":
                value = fetch(np.floor(x).astype(np.int64),
                              np.floor(y).astype(np.int64))
            else:
                xb = x - 0.5
                yb = y - 0.5
                ix0 = np.floor(xb).astype(np.int64)
                iy0 = np.floor(yb).astype(np.int64)
                fx = (xb - ix0).astype(np.float32)
                fy = (yb - iy0).astype(np.float32)
                v00 = fetch(ix0, iy0)
                v01 = fetch(ix0 + 1, iy0)
                v10 = fetch(ix0, iy0 + 1)
                v11 = fetch(ix0 + 1, iy0 + 1)
                row0 = v00 * (1 - fx) + v01 * fx
                row1 = v10 * (1 - fx) + v11 * fx
                value = (row0 * (1 - fy) + row1 * fy).astype(
                    binding.np_dtype)
        self._write(p, np.asarray(value), mask, covers)
        active = mask.sum(axis=1).astype(np.int64)
        txns = np.maximum(1, (active * itemsize + 127) // 128 // 2 + 1)
        self.mem_transactions += txns
        self.mem_bytes += txns * 32
        self._charge_issue(batch.device.issue_cost["shared"])
        self.outstanding[p.dst] = "g"

    def _local_access(self, addrs, value, p, mask):
        """Per-thread local memory (DRAM-backed spill space).

        Each lane owns a disjoint slice of its member's local buffer.
        Local memory is physically interleaved so lane-uniform offsets
        coalesce — but it still pays DRAM latency/bandwidth, which is
        the register-blocking penalty for RE kernels.
        """
        if self.locals_ is None:
            raise SimError("kernel has no local memory but accesses it")
        device = self.batch.device
        itemsize = p.itemsize
        offsets = addrs.astype(np.int64) + _LANE_IDS * \
            (self.locals_[0].size // WARP)
        active = mask.sum(axis=1).astype(np.int64)
        txns = np.maximum(1, (active * itemsize + 127) // 128)
        self.mem_transactions += txns
        self.mem_bytes += txns * 128
        self.issue_cycles += device.mem_issue_cost * txns
        out = (np.empty((self.M, WARP), dtype=p.np_dtype)
               if value is None else None)
        off64 = offsets.astype(np.uint64)
        for i, local in enumerate(self.locals_):
            idx = local.element_index(off64[i], itemsize, mask[i])
            view = local.view(p.np_dtype)
            if value is None:
                out[i] = view[idx]
            else:
                view[idx[mask[i]]] = value[i][mask[i]]
        return out


# Gang-wide atomics ---------------------------------------------------


def _segmented_prefix(values: np.ndarray, starts: np.ndarray,
                      lengths: np.ndarray,
                      init: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sequential prefix chains ``[init, after 1 add, ...]`` per segment.

    Returns ``(prefix, offsets)``: segment ``g``'s chain occupies
    ``prefix[offsets[g] : offsets[g] + lengths[g] + 1]``.  Chains fold
    strictly left to right (``np.add.accumulate``), so float rounding
    matches a one-value-at-a-time serial loop bit for bit.  Segments
    are bucketed by power-of-two chain length and accumulated as
    zero-padded rows — padding sits past each chain's end and never
    feeds a result, and total transient memory stays within ~2x the
    event count regardless of how skewed the segment sizes are.
    """
    out_len = lengths + 1
    offsets = np.zeros(starts.size, np.int64)
    np.cumsum(out_len[:-1], dtype=np.int64, out=offsets[1:])
    prefix = np.empty(int(out_len.sum()), values.dtype)
    maxlen = int(out_len.max())
    lower, upper = 0, 1
    while lower < maxlen:
        pick = (out_len > lower) & (out_len <= upper)
        lower, upper = upper, upper * 2
        if not pick.any():
            continue
        cols = lower
        seg_starts = starts[pick]
        seg_lens = lengths[pick]
        buf = np.zeros((seg_starts.size, cols), values.dtype)
        buf[:, 0] = init[pick]
        if cols > 1:
            ar = np.arange(cols - 1, dtype=np.int64)
            gather = ar[None, :] < seg_lens[:, None]
            buf[:, 1:][gather] = values[
                (seg_starts[:, None] + ar[None, :])[gather]]
        np.add.accumulate(buf, axis=1, out=buf)
        ar = np.arange(cols, dtype=np.int64)
        scatter = ar[None, :] < out_len[pick][:, None]
        prefix[(offsets[pick][:, None] + ar[None, :])[scatter]] = \
            buf[scatter]
    return prefix, offsets


def _ordered_atomic_add(view: np.ndarray, idx: np.ndarray,
                        mask: np.ndarray,
                        value: np.ndarray) -> np.ndarray:
    """Gang-wide atomic read-add-write in exact serial member order.

    Reproduces, bit for bit, the block-at-a-time loop

        for i in range(M):                        # ascending block order
            old[i] = view[idx[i]]                 # member snapshot
            np.add.at(view, idx[i][mask[i]], value[i][mask[i]])

    without iterating members in Python: additions are stably grouped
    by address (flattened row-major position == serial order), each
    address's chain is folded sequentially via :func:`_segmented_prefix`,
    and every lane's old value samples its address's chain at the
    position just before its own member's additions.  Inactive lanes
    read element 0 at their member's snapshot, exactly as
    ``element_index`` maps them.
    """
    M, W = idx.shape
    S = M * W
    flat_idx = idx.reshape(-1)
    flat_mask = mask.reshape(-1)
    old = view[flat_idx]  # pre-instruction snapshot (fancy copy)
    w_pos = np.nonzero(flat_mask)[0]
    if w_pos.size:
        order = np.argsort(flat_idx[w_pos], kind="stable")
        w_pos = w_pos[order]
        w_idx = flat_idx[w_pos]
        w_val = value.reshape(-1)[w_pos]
        head = np.ones(w_idx.size, bool)
        head[1:] = w_idx[1:] != w_idx[:-1]
        starts = np.nonzero(head)[0]
        uaddr = w_idx[starts]
        lengths = np.diff(np.append(starts, w_idx.size))
        prefix, offsets = _segmented_prefix(w_val, starts, lengths,
                                            view[uaddr])
        # Per lane: how many additions to its address precede its
        # member?  Counted with one searchsorted over composite
        # (address, serial position) keys.
        group = np.searchsorted(uaddr, flat_idx)
        hit = np.zeros(S, bool)
        in_range = group < uaddr.size
        hit[in_range] = uaddr[group[in_range]] == flat_idx[in_range]
        member_first = (np.arange(S, dtype=np.int64) // W) * W
        before = np.searchsorted(w_idx * S + w_pos,
                                 flat_idx * S + member_first)
        k = before - starts[np.where(hit, group, 0)]
        old[hit] = prefix[offsets[group[hit]] + k[hit]]
        view[uaddr] = prefix[offsets + lengths]  # final chain values
    return old.reshape(M, W)


# Value semantics over lane arrays ------------------------------------


_CMP_FN = {"eq": np.equal, "ne": np.not_equal, "lt": np.less,
           "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal}

#: ``and``/``or``/``xor`` on predicates.
_LOGICAL = {"and": np.logical_and, "or": np.logical_or,
            "xor": np.logical_xor}


def _tex_address(idx, n, mode):
    """Apply a texture addressing mode; returns (indices, in_range)."""
    ok = (idx >= 0) & (idx < n)
    if mode == "wrap":
        return idx % n, ok
    return np.clip(idx, 0, n - 1), ok


def _int_div(a, b, p):
    safe_b = np.where(b == 0, 1, b)
    if p.ctype.signed:
        q = np.abs(a.astype(np.int64)) // np.abs(
            safe_b.astype(np.int64))
        sign = np.where((a < 0) != (safe_b < 0), -1, 1)
        return (q * sign).astype(a.dtype)
    return a // safe_b


def _int_rem(a, b, p):
    q = _int_div(a, b, p)
    return (a - q * np.where(b == 0, 1, b)).astype(a.dtype)


def _div(a, b, p):
    if p.ctype.is_integer:
        return _int_div(a, b, p)
    return a / b


def _shift_amount(b, p):
    return (b.astype(np.int64) & (p.ctype.bits - 1))


def _shl(a, b, p):
    return a << _shift_amount(b, p).astype(a.dtype)


def _shr(a, b, p):
    return a >> _shift_amount(b, p).astype(a.dtype)


def _mulhi(a, b, p):
    if p.ctype.signed:
        prod = a.astype(np.int64) * b.astype(np.int64)
    else:
        prod = a.astype(np.uint64) * b.astype(np.uint64)
    return (prod >> 32).astype(p.np_dtype)


def _mul24(a, b, p):
    a64 = a.astype(np.int64) & 0xFFFFFF
    b64 = b.astype(np.int64) & 0xFFFFFF
    if p.ctype.signed:
        a64 = np.where(a64 & 0x800000, a64 - 0x1000000, a64)
        b64 = np.where(b64 & 0x800000, b64 - 0x1000000, b64)
    return (a64 * b64).astype(p.np_dtype)


def _wrap2(fn):
    def wrapped(a, b, p):
        return fn(a, b)
    return wrapped


_BINARY = {
    "mul24": _mul24,
    "mulhi": _mulhi,
    "div": _div,
    "rem": _int_rem,
    "and": _wrap2(np.bitwise_and),
    "or": _wrap2(np.bitwise_or),
    "xor": _wrap2(np.bitwise_xor),
    "shl": _shl,
    "shr": _shr,
    "min": _wrap2(np.minimum),
    "max": _wrap2(np.maximum),
}


def _wrap1(fn):
    def wrapped(a, p):
        return fn(a)
    return wrapped


_UNARY = {
    "neg": _wrap1(np.negative),
    "not": _wrap1(np.invert),
    "abs": _wrap1(np.abs),
    "sqrt": _wrap1(np.sqrt),
    "rsqrt": _wrap1(lambda a: 1.0 / np.sqrt(a)),
    "rcp": _wrap1(lambda a: 1.0 / a),
    "floor": _wrap1(np.floor),
    "ceil": _wrap1(np.ceil),
    "round": _wrap1(np.rint),
    "trunc": _wrap1(np.trunc),
    "exp2": _wrap1(np.exp2),
    "lg2": _wrap1(np.log2),
    "sin": _wrap1(np.sin),
    "cos": _wrap1(np.cos),
}
