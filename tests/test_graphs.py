import pytest

from ecclab.errors import DisconnectedGraphError, InputError
from ecclab.families import complete, cycle, path
from ecclab.graphs import (
    all_pairs_distances,
    apply_vertex_map,
    bfs_distances,
    build_graph,
    connected_components,
    girth,
    is_connected,
)


def test_build_graph_normalizes_and_deduplicates():
    g = build_graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    assert not g.has_edge(1, 1)


def test_build_graph_rejects_self_loops_and_out_of_range():
    with pytest.raises(InputError):
        build_graph(3, [(1, 1)])
    with pytest.raises(InputError):
        build_graph(3, [(0, 3)])
    with pytest.raises(InputError):
        build_graph(0, [])


def test_bfs_distances_marks_unreachable():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert bfs_distances(g.adjacency, 0) == [0, 1, -1, -1]
    assert not is_connected(g)
    assert connected_components(g) == [(0, 1), (2, 3)]


def test_all_pairs_on_p4():
    dd = all_pairs_distances(path(4))
    assert dd.ecc == (3, 2, 2, 3)
    assert dd.diameter == 3
    assert dd.radius == 2
    assert dd.dist[0] == (0, 1, 2, 3)


def test_all_pairs_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        all_pairs_distances(build_graph(3, [(0, 1)]))


@pytest.mark.parametrize(
    "g,expected",
    [
        (path(6), 0),
        (cycle(5), 5),
        (cycle(8), 8),
        (complete(4), 3),
        (build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (3, 6)]), 4),
        (build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]), 3),
    ],
)
def test_girth(g, expected):
    assert girth(g) == expected


def test_apply_vertex_map():
    g = path(3)
    assert apply_vertex_map(g, (2, 1, 0)).edges == ((0, 1), (1, 2))
    with pytest.raises(InputError):
        apply_vertex_map(g, (0, 0, 1))
