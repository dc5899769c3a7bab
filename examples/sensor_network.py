"""Sensor network: distributed embedding, then topological hole detection.

The paper motivates planar networks by their natural occurrence; sensor
fields with Delaunay-style connectivity are the classic example.  Once
every sensor knows the clockwise order of its links — the output of the
distributed embedding, computed here *without any coordinates* — the
network can enumerate its faces by purely local face-tracing (each hop
of a face walk needs only one rotation lookup).  Faces are the key to
classic sensor-network services:

* **coverage-hole detection** — an interior face with many sides is a
  region no sensor covers;
* **perimeter identification** — the longest face of a well-deployed
  field is the outer boundary.

    python examples/sensor_network.py
"""

from repro import distributed_planar_embedding
from repro.planar.generators import delaunay_triangulation


def main() -> None:
    graph, positions = delaunay_triangulation(150, seed=42)
    print(f"sensor field: n={graph.num_nodes}, m={graph.num_edges} "
          "(Delaunay deployment)")

    result = distributed_planar_embedding(graph)
    print(f"embedding computed in {result.rounds} CONGEST rounds "
          f"(recursion depth {result.recursion_depth})")

    faces = result.rotation_system.faces()
    sizes = sorted((len(f) for f in faces), reverse=True)
    print(f"\nfaces discovered by local tracing: {len(faces)}")
    print(f"face size histogram (top 6): {sizes[:6]} ... min {sizes[-1]}")
    euler = graph.num_nodes - graph.num_edges + len(faces)
    print(f"Euler check: {graph.num_nodes} - {graph.num_edges} + {len(faces)} = {euler}")

    # The longest face walk is the field perimeter; other long faces are
    # coverage holes (Delaunay triangulations have only triangles inside,
    # so anything > 3 that is not the perimeter would be a hole).
    longest = max(faces, key=len)
    perimeter = sorted({u for u, _ in longest})
    print(f"\nperimeter: {len(perimeter)} sensors on the outer boundary")
    holes = [f for f in faces if len(f) > 3 and f is not longest]
    print(f"coverage holes (interior faces with >3 sides): {len(holes)}")

    # Region adjacency via the planar dual: how many face-hops from a
    # corner region to the opposite one (zone-based flooding cost).
    from repro.planar import dual_graph

    dual = dual_graph(result.rotation_system)
    source_face = dual.faces_at(perimeter[0])[0]
    target_face = dual.faces_at(perimeter[-1])[0]
    dist = {source_face: 0}
    frontier = [source_face]
    while frontier and target_face not in dist:
        nxt = []
        for f in frontier:
            for h in dual.graph.neighbors(f):
                if h not in dist:
                    dist[h] = dist[f] + 1
                    nxt.append(h)
        frontier = nxt
    print(f"dual graph: {dual.num_faces} regions; corner-to-corner "
          f"region distance {dist.get(target_face, '?')} face-hops")

    # positions are used only for this human-readable summary:
    xs = [positions[v][0] for v in perimeter]
    ys = [positions[v][1] for v in perimeter]
    print(f"boundary bounding box: x in [{min(xs):.2f}, {max(xs):.2f}], "
          f"y in [{min(ys):.2f}, {max(ys):.2f}]")

    degree3 = sum(1 for v in graph.nodes() if graph.degree(v) == 3)
    print(f"\n(per-vertex output format check: e.g. sensor 0 sorts its "
          f"{graph.degree(0)} links clockwise as {result.rotation[0]})")
    print(f"sensors with exactly 3 links: {degree3}")


if __name__ == "__main__":
    main()
