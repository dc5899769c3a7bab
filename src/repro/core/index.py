"""One-shot recursion-tree statistics shared by every recursive call.

Each ``embed_subtree`` call needs its subtree's node set (sorted in the
library's canonical ``repr`` order), its size and depth, and the child
lists of its vertices.  Recomputing those per call walks the subtree
twice and re-sorts its nodes (int ranks) by ``repr`` — an O(n log n)
*central bookkeeping* cost per call that the CONGEST ledger never sees,
because the real distributed work (the subtree-stats convergecast and
the splitter token walk) is charged separately and stays untouched.

:class:`RecursionIndex` precomputes everything once after BFS:

* an Euler-tour preorder of the BFS tree, so any subtree is a contiguous
  slice ``order[tin[s]:tout[s]]`` (its size is O(1));
* per-node BFS depth and the *peak* depth inside each subtree, so
  ``subtree_depth`` is a subtraction instead of a walk;
* the global rank of every node in ``repr`` order, so canonical sorts
  run on integer keys.

The index is simulation bookkeeping, not protocol state: every quantity
is derivable from the BFS tree the nodes already hold locally, so
precomputing it centrally changes no rounds, messages, words, or
activations.  The differential suite in ``tests/integration`` swaps in a
test-local index that recomputes per call (``BfsTree`` walks and
``sorted(key=repr)``) and asserts bit-identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..planar.graph import NodeId
from ..primitives.bfs import BfsTree

__all__ = ["RecursionIndex"]


@dataclass
class RecursionIndex:
    """Precomputed Euler-tour intervals, depths, and canonical ranks."""

    order: list[NodeId]  # Euler-tour preorder (children in tree order)
    tin: dict[NodeId, int]  # v -> start of v's interval in ``order``
    tout: dict[NodeId, int]  # v -> end (exclusive): order[tin:tout] == subtree
    depth_of: dict[NodeId, int]  # v -> BFS depth (== tree.depth_of)
    peak_depth: dict[NodeId, int]  # v -> max BFS depth within v's subtree
    rank: dict[NodeId, int]  # v -> position in global repr-order

    @classmethod
    def build(cls, tree: BfsTree) -> "RecursionIndex":
        order: list[NodeId] = []
        tin: dict[NodeId, int] = {}
        tout: dict[NodeId, int] = {}
        peak: dict[NodeId, int] = {}
        children = tree.children
        depth_of = tree.depth_of
        stack: list[tuple[NodeId, bool]] = [(tree.root, False)]
        while stack:
            v, processed = stack.pop()
            if processed:
                tout[v] = len(order)
                p = depth_of[v]
                for c in children.get(v, ()):
                    pc = peak[c]
                    if pc > p:
                        p = pc
                peak[v] = p
            else:
                tin[v] = len(order)
                order.append(v)
                stack.append((v, True))
                for c in reversed(children.get(v, ())):
                    stack.append((c, False))
        rank = {v: i for i, v in enumerate(sorted(order, key=repr))}
        return cls(
            order=order,
            tin=tin,
            tout=tout,
            depth_of=dict(depth_of),
            peak_depth=peak,
            rank=rank,
        )

    # -- queries -----------------------------------------------------------

    def subtree_span(self, s: NodeId) -> list[NodeId]:
        """The subtree's nodes in Euler order (a contiguous slice)."""
        return self.order[self.tin[s] : self.tout[s]]

    def subtree_size(self, s: NodeId) -> int:
        return self.tout[s] - self.tin[s]

    def subtree_depth(self, s: NodeId) -> int:
        """== ``BfsTree.subtree_depth(s)``, without re-walking the subtree."""
        return self.peak_depth[s] - self.depth_of[s]

    def sort(self, nodes) -> list[NodeId]:
        """``sorted(nodes, key=repr)`` via the precomputed integer ranks."""
        return sorted(nodes, key=self.rank.__getitem__)
