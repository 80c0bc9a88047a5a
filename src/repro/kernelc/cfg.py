"""Control-flow graph over the linear IR.

Used by the optimization passes (dataflow constant propagation,
liveness-based register accounting) and by the SIMT executor, which
needs immediate post-dominators to pick warp reconvergence points
(the standard IPDOM scheme).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.kernelc.ir import Instr, IRKernel, Label


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence.

    ``start``/``end`` index into the kernel's flattened instruction
    list (``end`` exclusive).  Successors/predecessors are block ids.
    """

    bid: int
    start: int
    end: int
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)


class CFG:
    """Control-flow graph of a kernel body.

    The body is flattened: labels are dropped and branch targets become
    instruction indices (``self.label_index``).  ``self.instrs[i]`` is
    the i-th executable instruction.
    """

    def __init__(self, kernel: IRKernel):
        self.kernel = kernel
        self.instrs: List[Instr] = []
        self.label_index: Dict[str, int] = {}
        for item in kernel.body:
            if isinstance(item, Label):
                self.label_index[item.name] = len(self.instrs)
            else:
                self.instrs.append(item)
        self.blocks: List[BasicBlock] = []
        self.block_of_instr: List[int] = []
        self._build_blocks()
        self._ipdom: Optional[List[Optional[int]]] = None

    # ------------------------------------------------------------------

    def _build_blocks(self) -> None:
        n = len(self.instrs)
        leaders = {0} if n else set()
        for i, instr in enumerate(self.instrs):
            if instr.op == "bra":
                leaders.add(self.label_index[instr.target])
                if i + 1 < n:
                    leaders.add(i + 1)
            elif instr.op == "exit" and i + 1 < n:
                leaders.add(i + 1)
        ordered = sorted(leaders)
        starts = {s: bid for bid, s in enumerate(ordered)}
        for bid, start in enumerate(ordered):
            end = ordered[bid + 1] if bid + 1 < len(ordered) else n
            self.blocks.append(BasicBlock(bid, start, end))
        self.block_of_instr = [0] * n
        for block in self.blocks:
            for i in range(block.start, block.end):
                self.block_of_instr[i] = block.bid
        for block in self.blocks:
            if block.end == block.start:
                continue
            last = self.instrs[block.end - 1]
            succs: List[int] = []
            if last.op == "bra":
                succs.append(starts[self.label_index[last.target]])
                if last.pred is not None and block.end < n:
                    succs.append(starts[block.end])
            elif last.op == "exit":
                pass
            elif block.end < n:
                succs.append(starts[block.end])
            block.succs = succs
        for block in self.blocks:
            for s in block.succs:
                self.blocks[s].preds.append(block.bid)

    # ------------------------------------------------------------------
    # Post-dominance (for IPDOM reconvergence)

    def ipdom_instr(self) -> Dict[int, int]:
        """Map: branch-instruction index -> reconvergence instruction index.

        Computed as the immediate post-dominator of the branch's block,
        taken at its first instruction.  Branches whose post-dominator
        is the virtual exit reconverge at ``len(instrs)`` (kernel end).
        """
        ipdom = self._post_dominators()
        out: Dict[int, int] = {}
        n = len(self.instrs)
        for i, instr in enumerate(self.instrs):
            if instr.op != "bra" or instr.pred is None:
                continue
            bid = self.block_of_instr[i]
            p = ipdom[bid]
            out[i] = self.blocks[p].start if p is not None else n
        return out

    def _post_dominators(self) -> List[Optional[int]]:
        """Immediate post-dominator per block (None = virtual exit)."""
        if self._ipdom is not None:
            return self._ipdom
        nblocks = len(self.blocks)
        exit_id = nblocks  # virtual exit node
        forward_exit_preds = [b.bid for b in self.blocks if not b.succs]
        # Reverse-graph adjacency: edge exit->b for each b without succs,
        # and edge s->b for each forward edge b->s.
        radj: List[List[int]] = [[] for _ in range(nblocks + 1)]
        radj[exit_id] = list(forward_exit_preds)
        for b in self.blocks:
            for s in b.succs:
                radj[s].append(b.bid)
        # Reverse postorder on the reverse graph starting at exit.
        visited = [False] * (nblocks + 1)
        order: List[int] = []

        def dfs(u: int) -> None:
            stack = [(u, iter(radj[u]))]
            visited[u] = True
            while stack:
                node, it = stack[-1]
                advanced = False
                for v in it:
                    if not visited[v]:
                        visited[v] = True
                        stack.append((v, iter(radj[v])))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()

        dfs(exit_id)
        rpo = list(reversed(order))
        rpo_index = {b: i for i, b in enumerate(rpo)}
        idom: List[Optional[int]] = [None] * (nblocks + 1)
        idom[exit_id] = exit_id

        def intersect(a: int, b: int) -> int:
            while a != b:
                while rpo_index[a] > rpo_index[b]:
                    a = idom[a]
                while rpo_index[b] > rpo_index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for u in rpo:
                if u == exit_id:
                    continue
                # Predecessors of u in the reverse graph = forward succs,
                # plus exit if u has no forward succs.
                preds = list(self.blocks[u].succs) if u < nblocks else []
                if u < nblocks and not self.blocks[u].succs:
                    preds = [exit_id]
                new = None
                for p in preds:
                    if idom[p] is None or p not in rpo_index:
                        continue
                    new = p if new is None else intersect(new, p)
                if new is not None and idom[u] != new:
                    idom[u] = new
                    changed = True
        result: List[Optional[int]] = []
        for bid in range(nblocks):
            d = idom[bid]
            result.append(None if d in (None, exit_id) else d)
        self._ipdom = result
        return result

    # ------------------------------------------------------------------

    def rebuild_body(self, keep: Optional[Set[str]] = None) -> None:
        """Write the (possibly mutated) flat form back into the kernel.

        Passes that delete instructions mark them by setting ``op`` to
        ``'nop'``; this drops nops and re-emits the labels named in
        *keep* (by default, those a branch still references).
        """
        if keep is None:
            keep = self.branch_targets()
        index_to_labels: Dict[int, List[str]] = {}
        for name, idx in self.label_index.items():
            if name in keep:
                index_to_labels.setdefault(idx, []).append(name)
        body = []
        for i, instr in enumerate(self.instrs):
            for name in index_to_labels.get(i, ()):
                body.append(Label(name))
            if instr.op != "nop":
                body.append(instr)
        tail = len(self.instrs)
        for name in index_to_labels.get(tail, ()):
            body.append(Label(name))
        self.kernel.body = body

    def branch_targets(self) -> Set[str]:
        """Labels some live branch still jumps to."""
        return {ins.target for ins in self.instrs if ins.op == "bra"}

    def reachable_blocks(self) -> List[int]:
        """Ids of the blocks the entry reaches, in order, following the
        branches ``self.instrs`` holds now (passes may have changed or
        deleted some since the blocks were built)."""
        blocks, n = self.blocks, len(self.instrs)
        block_at = {b.start: b.bid for b in blocks}
        seen, stack = [False] * len(blocks), [0] if blocks else []
        while stack:
            block = blocks[stack.pop()]
            if seen[block.bid] or block.end == block.start:
                seen[block.bid] = True
                continue
            seen[block.bid], last = True, self.instrs[block.end - 1]
            if last.op == "bra":
                stack.append(block_at[self.label_index[last.target]])
            if block.end < n and last.op != "exit" and (
                    last.op != "bra" or last.pred is not None):
                stack.append(block.bid + 1)
        return [b for b, ok in enumerate(seen) if ok]
