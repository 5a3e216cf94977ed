import random

import pytest

from ecclab.eccentric import (
    eccentric_girth,
    eccentric_graph,
    eccentricity_matrix,
    eccentricity_profile,
    is_eccentric,
)
from ecclab.errors import DisconnectedGraphError, InputError
from ecclab.families import complete, cycle, path, star
from ecclab.graphs import Graph, build_graph
from ecclab.trees import enumerate_trees, random_tree

INF = float("inf")


def oracle_eccentric_graph(g: Graph) -> set:
    """Or-of-directions oracle: u ~ v iff d(u,v)=e(v) or d(u,v)=e(u).

    Distances come from Floyd-Warshall, independent of the library's BFS.
    """
    n = g.num_vertices
    d = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    ecc = [max(row) for row in d]
    return {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if d[u][v] == ecc[u] or d[u][v] == ecc[v]
    }


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    base = random_tree(n, seed=rng.randrange(2**31)).graph
    extra = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.2
    ]
    return build_graph(n, list(base.edges) + extra)


def test_min_formulation_matches_direction_oracle_on_trees():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            assert set(eccentric_graph(t.graph).edges) == oracle_eccentric_graph(t.graph)


def test_min_formulation_matches_direction_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randint(2, 10))
        assert set(eccentric_graph(g).edges) == oracle_eccentric_graph(g)


def test_min_formulation_matches_direction_oracle_on_families():
    for g in [path(9), cycle(8), cycle(9), star(5), complete(6)]:
        assert set(eccentric_graph(g).edges) == oracle_eccentric_graph(g)


def test_is_eccentric_on_p4():
    p = eccentricity_profile(path(4))
    assert is_eccentric(p, 3, 1)  # d(3,1) = 2 = e(1)
    assert not is_eccentric(p, 1, 3)  # d(1,3) = 2 < e(3) = 3
    assert is_eccentric(p, 0, 3)
    assert [u for u in range(4) if is_eccentric(p, u, 1)] == [3]
    assert [u for u in range(4) if is_eccentric(p, u, 0)] == [3]


def test_eccentricity_matrix_p2_and_p4():
    assert eccentricity_matrix(path(2)).entries == ((0, 1), (1, 0))
    assert eccentricity_matrix(path(4)).entries == (
        (0, 0, 2, 3),
        (0, 0, 0, 2),
        (2, 0, 0, 0),
        (3, 2, 0, 0),
    )


def test_matrix_entries_match_eccentric_graph_support():
    g = cycle(7)
    m = eccentricity_matrix(g)
    eg = eccentric_graph(g)
    for u in range(7):
        for v in range(7):
            assert (m[u, v] != 0) == eg.has_edge(u, v)


def test_eccentric_girth():
    assert eccentric_girth(path(4)) == 0
    assert eccentric_girth(path(5)) == 3
    assert eccentric_girth(cycle(5)) == 5
    assert eccentric_girth(cycle(6)) == 0


def test_domain_errors():
    with pytest.raises(InputError):
        eccentric_graph(build_graph(1, []))
    with pytest.raises(DisconnectedGraphError):
        eccentric_graph(build_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(DisconnectedGraphError):
        eccentricity_matrix(build_graph(4, [(0, 1), (2, 3)]))
