"""Face-level utilities on rotation systems."""

from repro.planar import planar_embedding, trace_faces
from repro.planar.generators import cycle_graph, grid_graph, wheel_graph


def test_face_lengths_sum_to_twice_edges():
    for g in (grid_graph(4, 4), wheel_graph(7), cycle_graph(5)):
        rot = planar_embedding(g)
        assert sum(len(f) for f in trace_faces(rot)) == 2 * g.num_edges


def test_face_walks_are_closed():
    rot = planar_embedding(grid_graph(3, 4))
    for face in trace_faces(rot):
        for (a, b), (c, d) in zip(face, face[1:] + face[:1]):
            assert b == c  # consecutive darts chain head-to-tail


def test_wheel_face_census():
    rim = 9
    rot = planar_embedding(wheel_graph(rim))
    sizes = sorted(len(f) for f in trace_faces(rot))
    assert sizes == [3] * rim + [rim]  # rim triangles + the outer rim face
