import itertools
import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import brute_force_girth, spider
from ecclab import graphs as graph_module
from ecclab.eccentric import eccentric_graph, eccentricity_determinant, eccentricity_matrix
from ecclab.errors import DisconnectedGraphError
from ecclab.families import complete, cycle, path
from ecclab.graphs import (
    _normalize_edges,
    all_pairs_distances,
    bfs_distances,
    build_graph,
    connected_components,
    eccentric_sets,
    girth,
    is_connected,
    members,
)
from ecclab.intmatrix import IntMatrix, determinant, determinant_oracle
from ecclab.products import ProductIndexMap, _tensor_rows, cartesian_product
from ecclab.trees import _tree_unchecked, prufer_decode, random_tree


@st.composite
def graphs(draw, min_vertices=2, max_vertices=10, connected=False):
    n = draw(st.integers(min_vertices, max_vertices))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    if connected:
        seed = draw(st.integers(0, 2**20))
        edges = list(set(edges) | set(random_tree(n, seed=seed).graph.edges))
    return build_graph(n, edges)


def bfs_components(g):
    """The reachability classes of ``bfs_distances``, by least vertex: a
    component oracle independent of the bitset flood fill behind
    ``connected_components``, ``is_connected`` and girth's forest test."""
    classes = []
    seen = set()
    for s in range(g.num_vertices):
        if s not in seen:
            row = bfs_distances(g.adjacency, s)
            comp = tuple(v for v, d in enumerate(row) if d >= 0)
            seen.update(comp)
            classes.append(comp)
    return classes


@given(graphs(min_vertices=1, max_vertices=10))
@example(build_graph(1, []))
@example(build_graph(4, [(1, 3)]))
def test_components_match_bfs_reachability(g):
    classes = bfs_components(g)
    assert connected_components(g) == classes
    assert is_connected(g) == (len(classes) == 1)


@given(graphs())
def test_girth_zero_iff_forest(g):
    # A graph is acyclic exactly when every component is a tree.
    forest = g.num_edges == g.num_vertices - len(bfs_components(g))
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


@st.composite
def long_radius_graphs(draw):
    """Connected graphs of 40-801 vertices whose shape keeps the radius
    above ``graphs._DOUBLING_RADIUS`` (16). Pendants, tails and subtrees
    shorten no distance, and a radius is at least half the diameter:
    - a path spine of 50-180 vertices with up to 20 pendants and at most
      one chord of length 2-4 per 10 spine vertices, each of which takes at
      most 3 off the spine's diameter, so it stays at least 34;
    - a cycle of 40-120 vertices with up to 4 tails, on which every vertex
      is at least 20 from the antipode of its cycle vertex;
    - a tree grown off a spine of 40-120 vertices, of diameter at least 39;
    - a spider of 20-40 legs of 17-20 vertices, of radius its leg length,
      whose spheres at radius 16 cross the centre into every leg, so that
      a doubling round would cost more than the single steps it replaces.
    """
    kind = draw(st.sampled_from(["chorded path", "cycle with tails", "spined tree", "spider"]))
    if kind == "spider":
        return spider(draw(st.integers(20, 40)), draw(st.integers(17, 20)))
    if kind == "chorded path":
        n = draw(st.integers(50, 180))
        edges = [(i, i + 1) for i in range(n - 1)]
        for _ in range(draw(st.integers(0, n // 10))):
            i = draw(st.integers(0, n - 3))
            edges.append((i, min(i + draw(st.integers(2, 4)), n - 1)))
        for v in draw(st.lists(st.integers(0, n - 1), max_size=20)):
            edges.append((v, n))
            n += 1
    elif kind == "cycle with tails":
        n = draw(st.integers(40, 120))
        edges = [(i, (i + 1) % n) for i in range(n)]
        for _ in range(draw(st.integers(0, 4))):
            end = draw(st.integers(0, n - 1))
            for _ in range(draw(st.integers(1, 20))):
                edges.append((end, n))
                end = n
                n += 1
    else:
        spine = draw(st.integers(40, 120))
        edges = [(i, i + 1) for i in range(spine - 1)]
        parents = draw(st.lists(st.integers(0, 199), max_size=200 - spine))
        edges += [(p % v, v) for v, p in enumerate(parents, start=spine)]
        n = spine + len(parents)
    return build_graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(long_radius_graphs())
def test_eccentric_sets_match_bfs_past_the_doubling_radius(g):
    # The balls double at radius 16, then finish by single steps or by the
    # descent: a descent cost of 0 always descends, and one no graph
    # reaches never does.
    dd = all_pairs_distances(g)
    assert min(dd.ecc) > graph_module._DOUBLING_RADIUS
    far = tuple(
        sum(1 << u for u, d in enumerate(row) if d == e) for row, e in zip(dd.dist, dd.ecc)
    )
    for cost in (graph_module._DESCENT_COST, 0, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_DESCENT_COST", cost)
            assert eccentric_sets(g) == (dd.ecc, far), cost


@given(graphs(connected=True))
def test_eccentric_graph_edges_attain_min_eccentricity(g):
    dd = all_pairs_distances(g)
    for u, v in eccentric_graph(g).edges:
        assert dd.dist[u][v] == min(dd.ecc[u], dd.ecc[v])


@st.composite
def trees_and_products(draw):
    if draw(st.booleans()):
        return random_tree(draw(st.integers(2, 16)), seed=draw(st.integers(0, 2**20))).graph
    factors = [draw(graphs(max_vertices=5, connected=True)) for _ in range(2)]
    return cartesian_product(factors)[0]


@st.composite
def connected_masks(draw):
    """A graph and a vertex bitset grown one neighbour at a time, so that
    it induces a connected subgraph."""
    g = draw(trees_and_products())
    size = draw(st.integers(1, g.num_vertices))
    mask = 1 << draw(st.integers(0, g.num_vertices - 1))
    while mask.bit_count() < size:
        reach = 0
        for v in members(mask):
            reach |= g.neighbour_bitsets[v]
        mask |= 1 << draw(st.sampled_from(members(reach & ~mask)))
    return g, mask


def induced_relabelled(g, mask):
    """The subgraph that ``mask`` induces, relabelled onto 0..k-1, and the
    original label of each of its vertices."""
    labels = members(mask)
    index = {v: i for i, v in enumerate(labels)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return build_graph(len(labels), edges), labels


def relabelled_eccentric_sets(g, mask):
    """Unmasked ``eccentric_sets`` of the relabelled induced subgraph,
    lifted back to g's labels bit by bit."""
    sub, labels = induced_relabelled(g, mask)
    sub_ecc, sub_far = eccentric_sets(sub)
    ecc = [0] * g.num_vertices
    far = [0] * g.num_vertices
    for i, v in enumerate(labels):
        ecc[v] = sub_ecc[i]
        far[v] = sum(1 << labels[j] for j in members(sub_far[i]))
    return tuple(ecc), tuple(far)


def sub_path(n, lo, hi, family=path):
    """P_n, or another family's graph on n vertices, and the bitset of its
    vertices lo..hi."""
    return family(n), sum(1 << v for v in range(lo, hi + 1))


@settings(max_examples=200)
@given(connected_masks())
# Sub-paths of P_120 with radii above 16, on which the balls double.
@example(sub_path(120, 0, 119))
@example(sub_path(120, 10, 109))
@example(sub_path(120, 30, 70))
@example(sub_path(120, 1, 40))
# Sub-paths of P_300 and C_300 with radii above 64, on which the balls
# double and then descend, and C_300 itself, which takes single steps.
@example(sub_path(300, 0, 299))
@example(sub_path(300, 20, 279))
@example(sub_path(300, 7, 160))
@example(sub_path(300, 0, 298, cycle))
@example(sub_path(300, 50, 249, cycle))
@example(sub_path(300, 0, 299, cycle))
def test_masked_eccentric_sets_match_the_relabelled_subgraph(case):
    g, mask = case
    assert eccentric_sets(g, mask) == relabelled_eccentric_sets(g, mask)


@given(trees_and_products(), st.data())
def test_masked_eccentric_sets_raise_iff_the_mask_is_disconnected(g, data):
    mask = data.draw(st.integers(1, (1 << g.num_vertices) - 1))
    if is_connected(induced_relabelled(g, mask)[0]):
        assert eccentric_sets(g, mask) == relabelled_eccentric_sets(g, mask)
    else:
        with pytest.raises(DisconnectedGraphError):
            eccentric_sets(g, mask)


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


@given(st.integers(2, 12), st.data())
def test_tree_unchecked_equals_build_graph(n, data):
    # The Prüfer decode gives normalized, distinct edges, so sorting them
    # gives the edges that build_graph normalizes.
    seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
    edges = prufer_decode(seq, n)
    assert _tree_unchecked(n, edges).graph == build_graph(n, edges)


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


@given(graphs(max_vertices=9, connected=True))
def test_eccentricity_determinant_matches_leibniz(g):
    assert eccentricity_determinant(g) == determinant_oracle(eccentricity_matrix(g))


@given(graphs(min_vertices=10, max_vertices=40, connected=True))
def test_eccentricity_determinant_matches_dense_bareiss(g):
    # Past the Leibniz oracle's 9x9 limit: the dense determinant is one
    # Bareiss run on the whole matrix, which runs none of the split's code.
    assert eccentricity_determinant(g) == determinant(eccentricity_matrix(g))


@given(st.lists(st.integers(2, 6), min_size=1, max_size=4))
def test_index_map_bijection(sizes):
    im = ProductIndexMap(tuple(sizes))
    seen = {im.flatten(im.unflatten(i)) for i in range(im.size)}
    assert seen == set(range(im.size))


# One relation per factor, as bitset rows on 1..6 vertices. Random rows are
# in general not symmetric, as eccentric sets are not.
factor_relations = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
)


@given(st.lists(factor_relations, min_size=1, max_size=3))
@example([[0b10, 0b11], [0b001, 0b100, 0b110]])
def test_tensor_rows_match_the_coordinatewise_relation(relations):
    """Row u relates u to every v with v_i in factor i's row of u_i, for
    every i: the product of the rows' members, flattened tuple by tuple."""
    im = ProductIndexMap(tuple(len(r) for r in relations))
    expected = []
    for u in range(im.size):
        rows = [r[x] for r, x in zip(relations, im.unflatten(u))]
        related = [[y for y in range(row.bit_length()) if row >> y & 1] for row in rows]
        expected.append(sum(1 << im.flatten(v) for v in itertools.product(*related)))
    assert _tensor_rows(relations) == expected


factor_graphs = st.one_of(
    st.integers(2, 6).map(path),
    st.integers(3, 6).map(cycle),
    st.integers(2, 5).map(complete),
    st.tuples(st.integers(2, 7), st.integers(0, 2**20)).map(
        lambda nk: random_tree(*nk).graph
    ),
)


@given(st.lists(factor_graphs, min_size=2, max_size=3))
def test_cartesian_product_edges_come_out_normalized(factors):
    g, im = cartesian_product(factors)
    assert g.edges == _normalize_edges(g.edges)
    assert g.num_edges == sum(
        f.num_edges * im.size // f.num_vertices for f in factors
    )


built_graphs = st.one_of(
    graphs(min_vertices=1),
    st.lists(factor_graphs, min_size=2, max_size=3).map(lambda fs: cartesian_product(fs)[0]),
    graphs(connected=True).map(eccentric_graph),
    st.tuples(st.integers(2, 40), st.integers(0, 2**20)).map(lambda nk: random_tree(*nk).graph),
)


@given(built_graphs)
def test_adjacency_rows_ascend(g):
    # ``Graph.adjacency`` sorts no row: every constructor's edges are
    # sorted, so each row comes out ascending.
    assert g.adjacency == tuple(tuple(members(b)) for b in g.neighbour_bitsets)
