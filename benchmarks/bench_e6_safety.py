"""E6 — Definition 3.1 / Lemma 4.1: the partitions are safe.

Replays the recursion's partitioning on several networks and audits the
full safety property at each recursive call: the partition
{P0, P1, ..., Pk, G \\ H} must be a partition of V in which every
non-trivial part has a connected complement.
"""

import time

from repro.analysis import print_table, verdict
from repro.core import PartitionState, fresh_part
from repro.core.algorithm import _wrap
from repro.planar.generators import cylinder_graph, grid_graph, random_maximal_planar
from repro.primitives import build_bfs_tree, compute_subtree_stats, elect_leader, find_splitter
from repro.planar import Graph


def audit_partitions(graph):
    """Walk the recursion's partitioning and audit safety at each call."""
    wrapped, _ids = _wrap(graph)
    leader = elect_leader(wrapped)
    tree = build_bfs_tree(wrapped, leader)
    checked = 0
    safe = 0

    stack = [leader]
    while stack:
        s = stack.pop()
        vertices = tree.subtree_nodes(s)
        if len(vertices) <= 2:
            continue
        tg = Graph(nodes=sorted(vertices, key=repr))
        parent = {v: (tree.parent[v] if v != s else None) for v in vertices}
        children = {v: list(tree.children[v]) for v in vertices}
        for v in tg.nodes():
            if parent[v] is not None:
                tg.add_edge(v, parent[v])
        stats = compute_subtree_stats(tg, parent, children)
        splitter = find_splitter(tg, s, parent, children, stats=stats)
        p0 = tree.path_to_descendant(s, splitter)
        p0_set = set(p0)
        hanging = sorted(
            {c for v in p0 for c in children[v] if c not in p0_set}, key=repr
        )

        parts = []
        groups = [p0_set] + [tree.subtree_nodes(w) for w in hanging]
        rest = set(wrapped.nodes()) - set().union(*groups)
        if rest:
            groups.append(rest)
        for nodes in groups:
            sub = wrapped.subgraph(nodes)
            boundary = [
                (u, x)
                for u in sorted(nodes, key=repr)
                for x in wrapped.neighbors(u)
                if x not in nodes
            ]
            parts.append(fresh_part(sub, boundary))
        state = PartitionState(network=wrapped, parts=parts)
        checked += 1
        if state.is_safe():
            safe += 1
        stack.extend(hanging)
    return checked, safe


def run_experiment(report=None):
    rows = []
    results = []
    for name, g in [
        ("grid12", grid_graph(12, 12)),
        ("cylinder6x14", cylinder_graph(6, 14)),
        ("maximal150", random_maximal_planar(150, 4)),
    ]:
        t0 = time.perf_counter()
        checked, safe = audit_partitions(g)
        wall = time.perf_counter() - t0
        if report is not None:
            report.record(
                family=name, n=g.num_nodes, m=g.num_edges,
                partitions_checked=checked, partitions_safe=safe,
                wall_s=round(wall, 6),
            )
        rows.append([name, checked, safe])
        results.append((checked, safe))
    print_table(
        ["family", "partitions audited", "safe"],
        rows,
        title="E6: safety property audit (Definition 3.1, Lemma 4.1)",
    )
    return results


def test_e6_safety(run_once, bench_report):
    results = run_once(run_experiment, bench_report)
    ok = all(checked == safe and checked > 0 for checked, safe in results)
    assert verdict(
        "E6: every recursion partition satisfies the safety property",
        ok,
        f"{sum(c for c, _ in results)} partitions audited",
    )
