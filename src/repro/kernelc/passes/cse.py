"""Local common-subexpression elimination with copy propagation.

Within each basic block, pure instructions with identical opcodes and
operands reuse the earlier result instead of recomputing it; an
expression recorded before any of its registers (or its result) was
redefined is stale.  Register-to-register ``mov`` copies propagate
locally, so chains produced by earlier replacements collapse too (DCE
sweeps the dead movs).  Unrolled loop bodies so share their common
address sub-expressions the way nvcc's PTX does, and the RE-vs-SK
instruction counts reflect real toolchain behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.kernelc.cfg import CFG
from repro.kernelc.ir import COMMUTATIVE_OPS, PURE_OPS, Imm, IRKernel, Reg


def cse_kernel(kernel: IRKernel,
               ids: Optional[Dict[str, int]] = None) -> bool:
    """Eliminate redundant pure computations per block.  Keys are int
    tuples: registers by id, anything else by a negative id."""
    ids = {} if ids is None else ids
    reg_of: Dict[int, Reg] = {}
    consts: Dict[object, int] = {}
    memo: Dict[object, int] = {}  # consts ids by value and type object

    def const(key, text) -> int:
        memo[key] = consts.setdefault(text, -1 - len(consts))
        return memo[key]

    cfg = CFG(kernel)
    changed, clock, defined = False, 0, {}
    for block in cfg.blocks:
        available: Dict[Tuple, Tuple[int, int]] = {}
        copies: Dict[int, int] = {}
        copy_rev: Dict[int, Set[int]] = {}
        for instr in cfg.instrs[block.start:block.end]:
            operands, srcs = [], instr.srcs
            for k, s in enumerate(srcs):
                if s.__class__ is Reg:
                    r = ids.setdefault(s.name, len(ids))
                    if r in copies:
                        srcs = list(srcs) if srcs is instr.srcs else srcs
                        r = _resolve(copies, r)
                        srcs[k], changed = reg_of[r], True
                elif s.__class__ is Imm:
                    v = s.value
                    key = (v if v.__class__ is int else repr(v), id(s.ctype))
                    r = memo.get(key)
                    if r is None:
                        r = const(key, (repr(v), s.ctype.ptx_suffix()))
                else:
                    r = memo.get(s.name) or const(s.name, s.name)
                operands.append(r)
            instr.srcs = srcs
            if instr.pred is not None:
                r = ids.setdefault(instr.pred.name, len(ids))
                if r in copies:
                    instr.pred, changed = reg_of[_resolve(copies, r)], True
            if instr.dst is None:
                continue
            # Redefining d retires what was computed from it (see the
            # clock) and the copies it holds or sources.
            d = ids.setdefault(instr.dst.name, len(ids))
            clock += 1
            defined[d] = clock
            if d in copies:
                copy_rev[copies.pop(d)].discard(d)
            for dependent in copy_rev.pop(d, ()):
                copies.pop(dependent, None)
            op = instr.op
            if op not in PURE_OPS or instr.pred is not None:
                continue
            if op == "mov" and operands[0] >= 0:
                if operands[0] != d:
                    copies[d], reg_of[operands[0]] = operands[0], srcs[0]
                    copy_rev.setdefault(operands[0], set()).add(d)
                continue
            if op in COMMUTATIVE_OPS and len(operands) == 2 \
                    and operands[1] < operands[0]:
                operands.reverse()
            sig = (op, id(instr.dtype), instr.cmp)
            key = (memo.get(sig) or const(
                sig, (op, instr.dtype.ptx_suffix(), instr.cmp)), *operands)
            prior, stamp = available.get(key, (None, 0))
            if prior is not None and all(defined.get(r, 0) <= stamp
                                         for r in operands + [prior]):
                instr.op, instr.cmp, instr.srcs = "mov", "", [reg_of[prior]]
                copies[d] = prior
                copy_rev.setdefault(prior, set()).add(d)
                changed = True
            elif d not in operands:
                available[key], reg_of[d] = (d, clock), instr.dst
    if changed:
        cfg.rebuild_body()
    return changed


def _resolve(copies: Dict[int, int], r: int) -> int:
    """Follow copy chains from *r* to the register it copies."""
    seen = set()
    while r in copies and r not in seen:
        seen.add(r)
        r = copies[r]
    return r
