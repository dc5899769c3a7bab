"""Distributed building blocks running as real CONGEST node programs."""

from .aggregation import (
    BroadcastProgram,
    ConvergecastProgram,
    tree_aggregate,
    tree_broadcast,
)
from .bfs import BfsProgram, BfsTree, build_bfs_tree
from .leader import MaxIdFloodProgram, elect_leader
from .splitter import SplitterWalkProgram, find_splitter, splitter_components
from .subtree import SubtreeStats, compute_subtree_stats

__all__ = [
    "elect_leader",
    "MaxIdFloodProgram",
    "build_bfs_tree",
    "BfsTree",
    "BfsProgram",
    "tree_aggregate",
    "tree_broadcast",
    "ConvergecastProgram",
    "BroadcastProgram",
    "compute_subtree_stats",
    "SubtreeStats",
    "find_splitter",
    "splitter_components",
    "SplitterWalkProgram",
]
