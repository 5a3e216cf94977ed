import random

import pytest

from ecclab import eccentric, graphs, products, trees
from ecclab.eccentric import (
    eccentric_girth,
    eccentric_graph,
    eccentricity_determinant,
    eccentricity_matrix,
    eccentricity_profile,
    eccentricity_rows,
)
from ecclab.errors import DisconnectedGraphError, InputError, SizeCapError
from ecclab.families import (
    complete,
    complete_bipartite,
    cycle,
    double_star,
    grid,
    hypercube,
    path,
    star,
)
from ecclab.graphs import Graph, all_pairs_distances, build_graph
from ecclab.intmatrix import determinant
from ecclab.products import (
    cartesian_product,
    check_kronecker_correspondence,
    predicted_tree_product_girth,
)
from ecclab.trees import (
    Tree,
    check_monotone_exclusion,
    check_structure_theorem,
    diametrical_paths,
    enumerate_trees,
    predicted_tree_girth,
    random_tree,
)

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
            assert (m.entries[u][v] != 0) == eg.has_edge(u, v)


# Every branch of the block split in ``eccentricity_determinant``. E(P_n)
# is a balanced bipartite tree for even n and has a triangle for odd n;
# E(C_n) is n/2 copies of K_2 for even n and an odd cycle for odd n, whose
# edge inside a side lies on the even side for n = 5, 9, 13 and on the odd
# side for the others; E(Q_k) is 2^(k-1) copies of K_2; a double star with
# s != t leaves is a bipartite block with unequal sides; E(S_n) is one
# block that is not bipartite; K_{2,t} mixes both kinds of block.
SPLIT_GRAPHS = {
    **{f"P_{n}": path(n) for n in range(2, 12)},
    **{f"C_{n}": cycle(n) for n in range(3, 16)},
    **{f"Q_{k}": hypercube(k) for k in range(3, 7)},
    "grid 8x8": grid(8, 8),
    "grid 9x9": grid(9, 9),
    **{
        f"S_{n} x P_2^{j}": cartesian_product([star(n)] + [path(2)] * j)[0]
        for n, j in ((3, 1), (4, 1), (5, 2), (6, 3))
    },
    **{f"K_{s},{t}": complete_bipartite(s, t) for s, t in ((2, 3), (2, 5), (3, 3), (4, 4))},
    **{f"S_{n}": star(n) for n in (3, 4, 9)},
    **{f"double star {s},{t}": double_star(s, t) for s, t in ((1, 3), (2, 3), (2, 2))},
}


@pytest.mark.parametrize("name", sorted(SPLIT_GRAPHS))
def test_eccentricity_determinant_matches_dense_bareiss(name):
    # The dense determinant is one Bareiss run on the whole matrix: an
    # oracle that runs none of the split's code.
    g = SPLIT_GRAPHS[name]
    assert eccentricity_determinant(g) == determinant(eccentricity_matrix(g))


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
    # A mask of one vertex induces a graph with no eccentric graph either.
    with pytest.raises(InputError):
        eccentric.eccentric_adjacency(path(3), 0b010)
    assert eccentric.eccentric_adjacency(path(3), 0b011) == ((1, 1, 0), [0b10, 0b01, 0])


def oracle_corpus() -> list[Graph]:
    rng = random.Random(11)
    corpus = [random_connected_graph(rng, rng.randint(2, 12)) for _ in range(60)]
    corpus += [path(2), path(7), cycle(9), star(4), complete(5)]
    corpus.append(cartesian_product([path(4), cycle(5), random_tree(4, seed=1).graph])[0])
    return corpus


def test_eccentricity_matrix_matches_bfs_definition():
    for g in oracle_corpus():
        dd = all_pairs_distances(g)
        n = g.num_vertices
        expected = tuple(
            tuple(
                dd.dist[u][v] if dd.dist[u][v] == min(dd.ecc[u], dd.ecc[v]) else 0
                for v in range(n)
            )
            for u in range(n)
        )
        assert eccentricity_matrix(g).entries == expected


def test_single_vertex():
    g = build_graph(1, [])
    p = eccentricity_profile(g)
    assert p.ecc == (0,)
    assert p.far == (0b1,)  # the vertex is at distance e = 0 from itself
    with pytest.raises(InputError):
        eccentricity_matrix(g)


def test_two_vertices():
    g = path(2)
    assert eccentric_graph(g) == g
    p = eccentricity_profile(g)
    assert p.ecc == (1, 1)
    assert p.far == (0b10, 0b01)


@pytest.mark.parametrize("f", [eccentric_graph, eccentricity_matrix, eccentricity_profile])
def test_disconnected_input_raises(f):
    with pytest.raises(DisconnectedGraphError):
        f(build_graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(DisconnectedGraphError):
        f(build_graph(2, []))


@pytest.mark.parametrize("f", [eccentric_graph, eccentricity_rows, eccentricity_matrix])
def test_eccentric_graph_edge_cap_before_building(monkeypatch, f):
    # S_707 is small, but E(S_707) = K_708 has 250,278 edges, 278 over the
    # edge cap: counted from E(G)'s bitsets before any edge is built.
    def refused(*args):
        raise AssertionError("an over-cap E(G) was built")

    monkeypatch.setattr(eccentric, "_graph_from_bitsets", refused)
    with pytest.raises(SizeCapError, match="^E\\(G\\) with 250278 edges exceeds the cap of 250000$"):
        f(star(707))


@pytest.mark.parametrize("g", [path(7), cycle(8), star(5), grid(3, 4), hypercube(3)])
def test_eccentric_graph_edge_count_is_the_built_edges(monkeypatch, g):
    counted = []
    monkeypatch.setattr(eccentric, "check_size", lambda *args: counted.append(args))
    eg = eccentric_graph(g)
    assert counted == [("E(G)", eg.num_vertices, eg.num_edges)]


def test_eccentric_objects_build_no_distance_table(monkeypatch):
    def forbidden(*args):
        raise AssertionError("distance table or Graph of E(G) built")

    for module in (graphs, products):
        monkeypatch.setattr(module, "all_pairs_distances", forbidden)
    assert not hasattr(trees, "all_pairs_distances")
    assert not hasattr(trees, "DistanceData")
    g = cartesian_product([path(4), cycle(5)])[0]
    eccentric_graph(g)
    eccentricity_matrix(g)
    eccentricity_profile(g)
    # From here on no Graph of E(G) may be built either.
    for module in (graphs, eccentric, products):
        monkeypatch.setattr(module, "_graph_from_bitsets", forbidden)
    monkeypatch.setattr(products, "kronecker_product_graph", forbidden)
    assert not hasattr(products, "eccentric_graph")
    assert check_kronecker_correspondence(cycle(5), cycle(7))
    assert eccentric_girth(g) == 4
    t = random_tree(12, seed=4)
    assert check_monotone_exclusion(t)
    assert predicted_tree_girth(t) in (0, 3, 4)
    assert diametrical_paths(t)
    assert check_structure_theorem(t) == (True, None)
    assert predicted_tree_product_girth([Tree(star(3)), Tree(path(2))]) == 4
