"""Register-usage accounting (the PTX → SASS allocation step).

Per-thread register usage is what limits occupancy (Table 2.2 of the
dissertation).  This pass computes the peak number of simultaneously
live 32-bit register equivalents via backward liveness on the CFG
(block sets as Python-int bitsets over register ids).

Weighting follows hardware convention: 64-bit values take two 32-bit
registers; predicates live in a separate predicate file and are not
counted.  A small fixed overhead models the registers the real ABI
reserves (stack pointer, special-purpose temporaries).
"""

from __future__ import annotations

from typing import Dict, List

from repro.kernelc import typesys as T
from repro.kernelc.cfg import CFG
from repro.kernelc.ir import IRKernel, Reg

#: Registers the ABI always reserves (observed nvcc floor is ~2-4).
_ABI_OVERHEAD = 2


def _weight(reg: Reg) -> int:
    t = reg.ctype
    if T.is_pointer(t):
        return 2
    if t.is_bool:
        return 0
    return 2 if t.bits == 64 else 1


def assign_registers(kernel: IRKernel) -> int:
    """Compute and record the per-thread register footprint."""
    cfg = CFG(kernel)
    ids: Dict[str, int] = {}
    weight: List[int] = []
    steps = []  # per instruction: (id written or -1, ids read)
    use, define = [], []
    for block in cfg.blocks:
        defined, exposed = set(), set()
        for instr in cfg.instrs[block.start:block.end]:
            reads, w = [], -1
            for s in instr.srcs + [instr.pred, instr.dst]:
                if s.__class__ is Reg:
                    r = ids.setdefault(s.name, len(ids))
                    if r == len(weight):
                        weight.append(_weight(s))
                    reads.append(r)
            if instr.dst is not None:
                w = reads.pop()
            for r in reads:
                if r not in defined:
                    exposed.add(r)
            defined.add(w)
            steps.append((w, reads))
        use.append(sum(1 << r for r in exposed))
        define.append(sum(1 << r for r in defined if r >= 0))
    live_in = [0] * len(cfg.blocks)
    live_out = [0] * len(cfg.blocks)
    changed = True
    while changed:
        changed = False
        for block in reversed(cfg.blocks):
            b, out = block.bid, 0
            for s in block.succs:
                out |= live_in[s]
            new_in = use[b] | (out & ~define[b])
            if out != live_out[b] or new_in != live_in[b]:
                live_out[b], live_in[b], changed = out, new_in, True
    peak = 0
    for block in cfg.blocks:
        # Walk backwards through the block tracking the live set.
        live = bytearray(len(weight))
        for r in range(live_out[block.bid].bit_length()):
            live[r] = live_out[block.bid] >> r & 1
        pressure = sum(w for w, on in zip(weight, live) if on)
        peak = max(peak, pressure)
        for w, reads in reversed(steps[block.start:block.end]):
            if w >= 0 and live[w]:
                live[w] = 0
                pressure -= weight[w]
            for r in reads:
                if not live[r]:
                    live[r] = 1
                    pressure += weight[r]
            peak = max(peak, pressure)
    kernel.reg_count = peak + _ABI_OVERHEAD
    return kernel.reg_count
