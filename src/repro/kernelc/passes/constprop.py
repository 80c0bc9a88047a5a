"""The sparse middle end: constant propagation, folding and DCE.

Registers are interned to integer ids and, being mutable (not SSA), an
operand's value is the meet of what its *reaching definitions* (a bitset
dataflow) assign.  In program order, an instruction whose definitions
all have values is evaluated (the folding and identities of
:mod:`~repro.kernelc.passes.constfold`) and rewritten on the spot; one
reading a definition with no value yet (a loop back edge) waits on its
def-use chains for a worklist.  Constant branches and guards resolve —
how run-time-guard regions vanish from specialized kernels — and dead
and unreachable code goes.  Every CFG edge counts as executable, a
predicated write is never constant, and only a resolved branch or
guard makes the kernel be analysed again.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.kernelc import typesys as T
from repro.kernelc.cfg import CFG
from repro.kernelc.ir import PURE_OPS, Imm, Instr, IRKernel, Reg
from repro.kernelc.passes.constfold import (UNKNOWN, fold_value, identity,
                                            simplify)

#: Lattice top (no value yet) and bottom (not a constant).
_TOP, _BOTTOM = object(), UNKNOWN
#: Stands in for a deleted instruction until the body is rebuilt.
NOP = Instr("nop")


def propagate_kernel(kernel: IRKernel,
                     ids: Optional[Dict[str, int]] = None) -> bool:
    """Propagate and fold constants, then delete dead and unreachable
    code, until none of them changes *kernel*.  Returns True if changed.
    *ids* interns register names; ``optimize_kernel`` shares one.
    """
    ids = {} if ids is None else ids
    changed, analyse = False, True
    while True:
        cfg = CFG(kernel)
        subst, resolved, folded, removed = (
            _Round(cfg, ids).run() if analyse and cfg.blocks
            else (False, False, False, eliminate_dead(cfg.instrs, ids)))
        # Labels no branch uses go only after a substitution or deleted
        # dead blocks; the IR digest corpus (tests/ir_corpus.py) pins it.
        targets = cfg.branch_targets() if subst else None
        adjacent, dead = prune_unreachable(cfg)
        if dead:
            cfg.rebuild_body()
        elif subst or folded or removed or adjacent:
            cfg.rebuild_body(targets if subst else set(cfg.label_index))
        changed |= subst or folded or removed or adjacent or dead
        if not (resolved or adjacent or dead):
            return changed
        analyse = resolved


class _Round:
    """One analysis of a flattened kernel, and its rewrite."""

    def __init__(self, cfg: CFG, ids: Dict[str, int]):
        self.cfg, self.ids, self.instrs = cfg, ids, cfg.instrs
        self.reach = cfg.reachable_blocks()
        self.val = [_BOTTOM] * len(self.instrs)
        #: Waiting instruction -> per operand, then guard, its definitions.
        self.plans: Dict[int, list] = {}
        self.users, self.unstable = defaultdict(list), bytearray(len(self.val))
        #: Register id -> reads, and -> removable definitions (for DCE).
        self.reads: Dict[int, int] = defaultdict(int)
        self.removable: Dict[int, List[int]] = defaultdict(list)
        self.subst = self.resolved = self.folded = False

    def run(self) -> Tuple[bool, bool, bool, bool]:
        self._link(*self._reaching())
        self._solve()
        for i, plan in self.plans.items():
            self._visit(i, plan, True)
        blocks, reach = self.cfg.blocks, set(self.reach)
        unreached = [i for b in blocks if b.bid not in reach
                     for i in range(b.start, b.end)]
        removed = eliminate_dead(self.instrs, self.ids, self.reads,
                                 self.removable, unreached)
        return self.subst, self.resolved, self.folded, removed

    def _reaching(self):
        """Reaching definitions as bitsets over the definitions: each
        block's in-set, each register's mask, and bit -> instruction."""
        mask: Dict[int, int] = defaultdict(int)
        bits, gen, keep, ids, val = [], {}, {}, self.ids, self.val
        for b in self.reach:
            block, last = self.cfg.blocks[b], {}
            for i in range(block.start, block.end):
                ins = self.instrs[i]
                if ins.dst is not None:
                    r = ids.setdefault(ins.dst.name, len(ids))
                    last[r] = len(bits)
                    mask[r] |= 1 << len(bits)
                    bits.append(i)
                    if ins.pred is None and ins.op in PURE_OPS:
                        val[i] = _TOP
            gen[b] = last
        for b, last in gen.items():  # kill sets need every definition
            gen[b] = sum(1 << bit for bit in last.values())
            keep[b] = ~sum(mask[r] for r in last)
        into, out, changed = dict.fromkeys(gen, 0), dict(gen), True
        while changed:
            changed = False
            for b in self.reach:
                x = 0
                for p in self.cfg.blocks[b].preds:
                    x |= out.get(p, 0)
                into[b] = x
                if gen[b] | (x & keep[b]) != out[b]:
                    out[b], changed = gen[b] | (x & keep[b]), True
        return into, mask, bits

    def _link(self, into, mask, bits) -> None:
        """Link operands to their definitions, in program order.

        An instruction reading a definition not walked yet (a loop back
        edge) or one that waits, waits too.  Any other is evaluated and
        rewritten on the spot if it has a known operand (a constant
        register; for a pure instruction, an immediate too).
        """
        instrs, val, ids, reads, unstable, meet, users = (
            self.instrs, self.val, self.ids, self.reads, self.unstable,
            self.meet, self.users)
        last: Dict[int, int] = {}
        straight = self._straight()
        for b in self.reach:
            block = self.cfg.blocks[b]
            start, entry, exposed = block.start, into[b], {}
            defs_of = tuple if b in straight else _Joined
            for i in range(start, block.end):
                ins, plan, wait, known, k = instrs[i], None, [], False, -1
                pure, guard = ins.op in PURE_OPS, ins.pred
                for s in ins.srcs + [guard] if guard else ins.srcs:
                    k += 1
                    if s.__class__ is not Reg:
                        known |= pure and s.__class__ is Imm
                        continue
                    r = ids.setdefault(s.name, len(ids))
                    reads[r] += 1
                    p = last.get(r, -1)
                    if p >= start:
                        if unstable[p]:
                            wait.append(p)
                        known |= val[p] is not _BOTTOM
                    else:
                        p = exposed.get(r)
                        if p is None:
                            p = exposed[r] = defs_of(_members(
                                entry & mask[r], bits))
                        wait += [d for d in p if d >= i or unstable[d]]
                        known |= meet(p) is not _BOTTOM
                    plan = plan or [None] * (len(ins.srcs) + 1)
                    plan[k] = p
                if ins.dst is not None:
                    last[ids[ins.dst.name]] = i
                    if pure or ins.op == "ld":
                        self.removable[ids[ins.dst.name]].append(i)
                if wait:
                    unstable[i], self.plans[i] = 1, plan
                    for d in wait:
                        users[d].append(i)
                elif known:  # else nothing here is or becomes constant
                    val[i] = self._visit(i, plan, True)
                elif val[i] is _TOP:
                    val[i] = _BOTTOM

    def _straight(self):
        """Blocks the entry reaches through blocks of one predecessor
        each: a value flows into them along a single path."""
        blocks, reach = self.cfg.blocks, set(self.reach)
        preds = [[p for p in b.preds if p in reach] for b in blocks]
        out, stack = set(), [] if preds[0] else [0]
        while stack:
            b = stack.pop()
            out.add(b)
            stack += [s for s in blocks[b].succs if len(preds[s]) == 1]
        return out

    def meet(self, defs):
        """Value of an operand reached by *defs* (no definition: bottom).
        NaN equals nothing, itself included, so a NaN met where paths
        join (*defs* a :class:`_Joined`) is bottom."""
        out = _TOP
        for d in defs:
            v = self.val[d]
            if v is _BOTTOM or (v is not _TOP and out is not _TOP
                                and out != v):
                return _BOTTOM
            out = v if out is _TOP else out
        if not defs or (out != out and defs.__class__ is _Joined):
            return _BOTTOM
        return out

    def _solve(self) -> None:
        """Worklist over the waiting definitions, in stages.  Any still at
        top sit on cycles no constant enters: they go bottom.  A waiting
        operand's constant feeds the identities only in stages after one
        found it, so an identity never proves its own trigger in a loop."""
        val, plans, allowed = self.val, self.plans, set()
        order = [i for i in plans if val[i] is _TOP]
        while True:
            work = order[::-1]
            while work:
                i = work.pop()
                old = val[i]
                new = old if old is _BOTTOM else self._visit(
                    i, plans[i], allowed=allowed)
                if not (new is old or new is _TOP or (
                        old is not _TOP and new is not _BOTTOM
                        and new == old)):
                    val[i] = new if old is _TOP else _BOTTOM
                    work += [u for u in self.users.get(i, ())
                             if u not in work]
                if not work:
                    tops = [i for i in order if val[i] is _TOP]
                    for i in tops:
                        val[i] = _BOTTOM
                    work = [u for i in tops for u in self.users.get(i, ())]
            found = {(i, k) for i in order for k, p in enumerate(
                plans[i][:len(self.instrs[i].srcs)]) if p is not None
                and self.meet((p,) if p.__class__ is int else p)
                not in (_TOP, _BOTTOM)}
            if found <= allowed:
                return
            allowed |= found
            for i in order:
                val[i] = _TOP

    def _visit(self, i: int, plan, rewrite: bool = False, allowed=None):
        """Value instruction *i* assigns (identities see the register
        operands in *allowed*, default all).  With *rewrite*, also
        substitute constants, resolve a constant guard and fold."""
        ins, val, meet = self.instrs[i], self.val, self.meet
        srcs, vals, view, top = ins.srcs, [], [], False
        for k, s in enumerate(ins.srcs):
            p = None if plan is None else plan[k]
            if p is None:
                v = s.value if s.__class__ is Imm else _BOTTOM
            else:
                v = val[p] if p.__class__ is int else meet(p)
                if rewrite and v is not _BOTTOM:
                    srcs = list(srcs) if srcs is ins.srcs else srcs
                    srcs[k] = Imm(v, s.ctype)
                    self.reads[self.ids[s.name]] -= 1
            top |= v is _TOP
            vals.append(UNKNOWN if v is _TOP else v)
            view.append(vals[-1] if p is None or allowed is None
                        or (i, k) in allowed else UNKNOWN)
        op = ins.op
        # Folding or an identity can apply only with a known operand.
        foldable = op in PURE_OPS and (UNKNOWN not in vals or (
            len(vals) == 2 and vals[0] is not vals[1]))
        value = _BOTTOM
        if ins.dst is not None and ins.pred is None and op in PURE_OPS:
            value = (_value(ins, vals, view, top) if foldable
                     else _TOP if top else _BOTTOM)
        if not rewrite:
            return value
        if srcs is not ins.srcs:
            # Operands an identity of the standing instruction drops: moot.
            kept = identity(op, ins.dtype, [
                s.value if s.__class__ is Imm else UNKNOWN for s in ins.srcs])
            self.subst |= kept is None or (kept.__class__ is int
                                           and srcs[kept] is not ins.srcs[kept])
            ins.srcs = srcs
        g = plan[-1] if ins.pred is not None else ()
        guard = val[g] if g.__class__ is int else meet(g)
        if guard is not _BOTTOM:
            self.subst = self.resolved = True
            self.reads[self.ids[ins.pred.name]] -= 1
            if bool(guard) == ins.pred_neg:
                self.instrs[i] = NOP
                _count(ins, self.reads, self.ids, -1)
                return value
            ins.pred, ins.pred_neg = None, False
        step = simplify(ins) if foldable else None
        if step is not None:
            _count(ins, self.reads, self.ids, -1)
            while step is not None:
                ins, step = step, simplify(step)
            self.instrs[i], self.folded = ins, True
            _count(ins, self.reads, self.ids, 1)
        return value


class _Joined(tuple):
    """The definitions reaching a block that paths join into."""


def _value(ins: Instr, vals, view, top: bool):
    """Value pure *ins* assigns given *vals* (*view* for identities)."""
    op, t = ins.op, ins.dtype
    if UNKNOWN not in vals:
        v = fold_value(op, t, ins.cmp, vals)
        if v is not None:  # an all-immediate one is the mov it folds to
            return v if any(s.__class__ is not Imm for s in ins.srcs) \
                else T.convert_const(v, t)
    found = identity(op, t, view)
    if found is None or (top and found.__class__ is int):
        return _TOP if top else _BOTTOM
    found = vals[found] if found.__class__ is int else found.value
    return _BOTTOM if found is UNKNOWN else T.convert_const(found, t)


def _count(ins: Instr, reads, ids, delta: int) -> None:
    """Add *delta* to the read count of every register *ins* reads."""
    for s in ins.srcs:
        if s.__class__ is Reg:
            reads[ids[s.name]] += delta


def _members(m: int, bits) -> Tuple[int, ...]:
    """The definitions whose bits are set in *m*."""
    return tuple(bits[b] for b in range(m.bit_length()) if m >> b & 1)


def eliminate_dead(items, ids: Dict[str, int], reads=None, defs=None,
                   indices=None) -> bool:
    """Delete (as NOP) pure instructions and loads nobody reads: the
    parameter plumbing specialization makes unnecessary (§2.4).  Counts
    the reads of ``items[i]`` for *indices* (default: all) first."""
    reads = defaultdict(int) if reads is None else reads
    defs = defaultdict(list) if defs is None else defs
    for i in range(len(items)) if indices is None else indices:
        ins = items[i]
        if ins.__class__ is Instr:
            for s in ins.srcs + [ins.pred] if ins.pred else ins.srcs:
                if s.__class__ is Reg:
                    reads[ids.setdefault(s.name, len(ids))] += 1
            if ins.dst is not None and (ins.op in PURE_OPS
                                        or ins.op == "ld"):
                defs[ids.setdefault(ins.dst.name, len(ids))].append(i)
    work = [r for r in defs if not reads.get(r)]
    removed = bool(work)
    while work:
        for i in defs.pop(work.pop()):
            ins, items[i] = items[i], NOP
            for s in ins.srcs + [ins.pred] if ins.pred else ins.srcs:
                if s.__class__ is Reg:
                    r = ids[s.name]
                    reads[r] -= 1
                    if not reads[r] and r in defs:
                        work.append(r)
    return removed


def prune_unreachable(cfg: CFG) -> Tuple[bool, bool]:
    """Drop branches to the next label, then code no path reaches, from
    *cfg*'s current flat list.  Returns (any branch, any code deleted).
    """
    instrs, following, adjacent = cfg.instrs, len(cfg.instrs), []
    for i in range(len(instrs) - 1, -1, -1):
        if instrs[i].op != "nop":
            if instrs[i].op == "bra" and instrs[i].pred is None and \
                    i < cfg.label_index[instrs[i].target] <= following:
                adjacent.append(i)
            following = i
    for i in adjacent:
        instrs[i] = NOP
    reach, dead = set(cfg.reachable_blocks()), False
    for block in cfg.blocks:
        for i in range(block.start, block.end):
            if block.bid not in reach and instrs[i].op != "nop":
                instrs[i], dead = NOP, True
    return bool(adjacent), dead


def dce_kernel(kernel: IRKernel,
               ids: Optional[Dict[str, int]] = None) -> bool:
    """Delete dead pure instructions.  Returns True if changed."""
    body = list(kernel.body)
    if not eliminate_dead(body, {} if ids is None else ids):
        return False
    kernel.body = [item for item in body if item is not NOP]
    return True


def remove_unreachable(kernel: IRKernel) -> bool:
    """Drop instructions not reachable from the kernel entry, and
    unconditional branches to the immediately following label."""
    cfg = CFG(kernel)
    adjacent, dead = prune_unreachable(cfg)
    if dead or adjacent:
        cfg.rebuild_body(None if dead else set(cfg.label_index))
    return adjacent or dead
