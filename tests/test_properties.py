import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import brute_force_girth
from ecclab.eccentric import eccentric_graph
from ecclab.graphs import (
    all_pairs_distances,
    build_graph,
    connected_components,
    eccentric_sets,
    girth,
    members,
)
from ecclab.intmatrix import IntMatrix, determinant, determinant_oracle
from ecclab.products import ProductIndexMap
from ecclab.trees import prufer_decode, random_tree


@st.composite
def graphs(draw, min_vertices=2, max_vertices=10, connected=False):
    n = draw(st.integers(min_vertices, max_vertices))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    if connected:
        seed = draw(st.integers(0, 2**20))
        edges = list(set(edges) | set(random_tree(n, seed=seed).graph.edges))
    return build_graph(n, edges)


@given(graphs())
def test_girth_zero_iff_forest(g):
    # A graph is acyclic exactly when every component is a tree.
    forest = g.num_edges == g.num_vertices - len(connected_components(g))
    assert (girth(g) == 0) == forest


@settings(max_examples=300)
@given(graphs(min_vertices=1, max_vertices=11))
def test_girth_matches_brute_force(g):
    assert girth(g) == brute_force_girth(g)


@given(graphs(connected=True))
def test_distances_symmetric_and_triangle(g):
    dd = all_pairs_distances(g)
    n = g.num_vertices
    for u in range(n):
        for v in range(n):
            assert dd.dist[u][v] == dd.dist[v][u]
            for w in range(n):
                assert dd.dist[u][w] <= dd.dist[u][v] + dd.dist[v][w]


@given(graphs(connected=True))
def test_eccentric_sets_match_bfs(g):
    ecc, far = eccentric_sets(g)
    dd = all_pairs_distances(g)
    assert ecc == dd.ecc
    for v in range(g.num_vertices):
        assert members(far[v]) == [u for u, d in enumerate(dd.dist[v]) if d == dd.ecc[v]]


@given(graphs(connected=True))
def test_eccentric_graph_edges_attain_min_eccentricity(g):
    dd = all_pairs_distances(g)
    for u, v in eccentric_graph(g).edges:
        assert dd.dist[u][v] == min(dd.ecc[u], dd.ecc[v])


@given(st.integers(2, 12), st.data())
def test_prufer_decode_always_a_tree(n, data):
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    edges = prufer_decode(seq, n)
    g = build_graph(n, edges)
    assert g.num_edges == n - 1
    assert len(connected_components(g)) == 1


@given(st.integers(2, 25), st.integers(0, 2**30))
def test_random_tree_determinism(n, seed):
    assert random_tree(n, seed).graph == random_tree(n, seed).graph


@settings(max_examples=60)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_bareiss_matches_leibniz(rows):
    m = IntMatrix.from_rows(rows)
    assert determinant(m) == determinant_oracle(m)


# About two entries in three are 0: most elimination steps skip rows, yet
# a fair share of the matrices is nonsingular and reaches the last step.
sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.lists(sparse_entries, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_sparse_bareiss_matches_leibniz(rows):
    m = IntMatrix.from_rows(rows)
    assert determinant(m) == determinant_oracle(m)


@given(st.lists(st.integers(2, 6), min_size=1, max_size=4))
def test_index_map_bijection(sizes):
    im = ProductIndexMap(tuple(sizes))
    seen = {im.flatten(im.unflatten(i)) for i in range(im.size)}
    assert seen == set(range(im.size))
