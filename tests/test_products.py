import dataclasses

import pytest

from ecclab import eccentric, products
from ecclab.eccentric import eccentric_girth, eccentric_graph
from ecclab.errors import InputError, PreconditionError, SizeCapError, UnsupportedSizeError
from ecclab.families import complete, cycle, path, star
from ecclab.graphs import build_graph, connected_components, girth
from ecclab.intmatrix import IntMatrix, kronecker_matrix
from ecclab.products import (
    ProductIndexMap,
    cartesian_product,
    check_additivity,
    check_componentwise_eccentric,
    check_kronecker_correspondence,
    cn_cn_isomorphism,
    cycle_product_structure,
    grid_eccentric_closed_form,
    kronecker_product_graph,
    predicted_tree_product_girth,
)
from ecclab.trees import Tree


def test_index_map_roundtrip():
    im = ProductIndexMap((3, 4, 5))
    assert im.size == 60
    assert im.strides == (20, 5, 1)
    for i in range(im.size):
        assert im.flatten(im.unflatten(i)) == i
    assert im.flatten((1, 2, 3)) == 33


def test_index_map_rejects_out_of_range_input():
    im = ProductIndexMap((2, 3))
    for coords in ((1,), (1, 2, 0), (5, 9), (-1, 0), (0, 3), (2, 0)):
        with pytest.raises(InputError):
            im.flatten(coords)
    for index in (-1, 6, 7):
        with pytest.raises(InputError):
            im.unflatten(index)
    assert im.flatten((1, 2)) == 5 and im.unflatten(5) == (1, 2)


def test_cartesian_p2_p2_is_c4():
    g, _ = cartesian_product([path(2), path(2)])
    assert g.num_vertices == 4 and girth(g) == 4


def test_cartesian_grid_shape():
    g, im = cartesian_product([path(3), path(5)])
    assert g.num_vertices == 15
    assert g.num_edges == 22  # 2mn - m - n
    # (i,j) ~ (i,j+1) and (i,j) ~ (i+1,j) only
    assert g.has_edge(im.flatten((1, 2)), im.flatten((1, 3)))
    assert g.has_edge(im.flatten((1, 2)), im.flatten((2, 2)))
    assert not g.has_edge(im.flatten((1, 2)), im.flatten((2, 3)))


def test_cartesian_validation():
    with pytest.raises(InputError):
        cartesian_product([path(3)])
    with pytest.raises(InputError):
        cartesian_product([path(3), path(1)])
    with pytest.raises(SizeCapError):
        cartesian_product([path(200), path(200)])


def test_cartesian_cap_comes_before_the_connectivity_test(monkeypatch):
    def refused(g):
        raise AssertionError("is_connected ran on an over-cap product")

    monkeypatch.setattr(products, "is_connected", refused)
    with pytest.raises(SizeCapError):
        cartesian_product([build_graph(20_001, []), path(2)])


@pytest.mark.parametrize(
    "build, edges",
    [
        (lambda g: cartesian_product([g, g]), 2_783_340),
        (lambda g: kronecker_product_graph(g, g), 194_833_800),
    ],
    ids=["cartesian", "kronecker"],
)
def test_products_apply_the_edge_cap_before_building(monkeypatch, build, edges):
    # K_141's square has 19,881 vertices, under the vertex cap, and edges
    # far over the edge cap: 2 * 9870 * 141 of them as a Cartesian product,
    # 2 * 9870^2 as a Kronecker product. Refused from those counts.
    def refused(*args):
        raise AssertionError("an over-cap product was built")

    monkeypatch.setattr(products, "is_connected", refused)
    monkeypatch.setattr(products, "_tensor_rows", refused)
    message = f"^product with {edges} edges exceeds the cap of 250000$"
    with pytest.raises(SizeCapError, match=message):
        build(complete(141))


@pytest.mark.parametrize(
    "factors",
    [[path(2), path(2)], [path(3), cycle(4)], [star(3), complete(4)], [cycle(5), path(2), star(2)]],
)
def test_product_edge_counts_are_the_built_edges(monkeypatch, factors):
    counted = []
    monkeypatch.setattr(products, "check_size", lambda *args: counted.append(args))
    box, _ = cartesian_product(factors)
    tensor = kronecker_product_graph(factors[0], factors[1])
    assert counted == [
        ("product", box.num_vertices, box.num_edges),
        ("product", tensor.num_vertices, tensor.num_edges),
    ]


def test_kronecker_graph_examples():
    k2k2 = kronecker_product_graph(complete(2), complete(2))
    assert set(k2k2.edges) == {(0, 3), (1, 2)}
    k3k2 = kronecker_product_graph(complete(3), complete(2))
    # K3 x K2 is C6: connected and 2-regular on 6 vertices.
    assert k3k2.num_vertices == 6
    assert connected_components(k3k2) == [tuple(range(6))]
    assert all(k3k2.degree(v) == 2 for v in range(6))
    edgeless = kronecker_product_graph(path(2), build_graph(2, []))
    assert edgeless.num_edges == 0


@pytest.mark.parametrize("a, b", [(path(3), path(2)), (path(2), path(3)), (cycle(4), star(2))])
def test_kronecker_matrix_is_the_kronecker_graph_adjacency(a, b):
    def adjacency_matrix(g):
        return IntMatrix.from_rows(
            [[int(g.has_edge(u, v)) for v in range(g.num_vertices)] for u in range(g.num_vertices)]
        )

    assert kronecker_matrix(adjacency_matrix(a), adjacency_matrix(b)) == adjacency_matrix(
        kronecker_product_graph(a, b)
    )


def test_additivity_instances():
    assert check_additivity([path(3), path(4)])
    assert check_additivity([cycle(5), path(2)])


@pytest.mark.parametrize("part, u, v", [("dist", 0, 11), ("dist", 7, 2), ("ecc", 5, None)])
def test_additivity_detects_an_entry_off_by_one(monkeypatch, part, u, v):
    real = products.all_pairs_distances

    def corrupted(g):
        dd = real(g)
        if g.num_vertices < 12:  # a factor
            return dd
        if part == "ecc":
            ecc = list(dd.ecc)
            ecc[u] += 1
            return dataclasses.replace(dd, ecc=tuple(ecc))
        dist = [list(row) for row in dd.dist]
        dist[u][v] += 1
        return dataclasses.replace(dd, dist=tuple(map(tuple, dist)))

    monkeypatch.setattr(products, "all_pairs_distances", corrupted)
    assert not check_additivity([path(3), path(4)])


def test_componentwise_instances():
    assert check_componentwise_eccentric([path(4), path(4)])
    assert check_componentwise_eccentric([cycle(6), cycle(6)])


def test_componentwise_instances_with_three_factors():
    assert check_componentwise_eccentric([path(3), cycle(5), star(3)])


@pytest.mark.parametrize("vertex, flipped", [(0, 15), (5, 0), (9, 12)])
def test_componentwise_detects_a_wrong_eccentric_set(monkeypatch, vertex, flipped):
    real = products.eccentricity_profile

    def corrupted(g):
        p = real(g)
        if g.num_vertices < 16:  # a factor
            return p
        far = list(p.far)
        far[vertex] ^= 1 << flipped
        return dataclasses.replace(p, far=tuple(far))

    monkeypatch.setattr(products, "eccentricity_profile", corrupted)
    assert not check_componentwise_eccentric([path(4), path(4)])


def test_componentwise_adjacency_is_not_product_adjacency():
    # In P_4 box P_4, (0,1) and (2,3) are eccentric-adjacent coordinatewise
    # but not adjacent in the eccentric graph of the product.
    ep4 = eccentric_graph(path(4))
    assert ep4.has_edge(0, 2) and ep4.has_edge(1, 3)
    product, im = cartesian_product([path(4), path(4)])
    assert not eccentric_graph(product).has_edge(im.flatten((0, 1)), im.flatten((2, 3)))


def test_kronecker_correspondence():
    assert check_kronecker_correspondence(cycle(5), cycle(5))
    assert check_kronecker_correspondence(complete(3), complete(4))
    with pytest.raises(PreconditionError):
        check_kronecker_correspondence(path(4), cycle(4))


def test_kronecker_correspondence_runs_the_kernel_once_per_graph(monkeypatch):
    calls = []
    real = eccentric.eccentric_sets

    def counted(g, keep=None):
        calls.append((g.num_vertices, keep))
        return real(g, keep)

    monkeypatch.setattr(eccentric, "eccentric_sets", counted)
    assert check_kronecker_correspondence(cycle(5), complete(3))
    assert sorted(calls) == [(3, None), (5, None), (15, None)]  # no run has a mask


@pytest.mark.parametrize("vertex, flipped", [(0, 0), (4, 13), (14, 6)])
def test_kronecker_correspondence_detects_a_flipped_bit(monkeypatch, vertex, flipped):
    real = products.eccentric_adjacency

    def corrupted(g, keep=None):
        ecc, nbrs = real(g, keep)
        if g.num_vertices == 15:  # the product
            nbrs = list(nbrs)
            nbrs[vertex] ^= 1 << flipped
        return ecc, nbrs

    monkeypatch.setattr(products, "eccentric_adjacency", corrupted)
    assert not check_kronecker_correspondence(cycle(5), complete(3))


@pytest.mark.parametrize(
    "factors,expected",
    [
        ([Tree(path(8)), Tree(path(6))], 0),
        ([Tree(path(3)), Tree(path(2))], 6),
        ([Tree(star(3)), Tree(path(2))], 4),
        ([Tree(path(3)), Tree(path(5))], 3),
    ],
)
def test_predicted_tree_product_girth(factors, expected):
    assert predicted_tree_product_girth(factors) == expected
    product, _ = cartesian_product([t.graph for t in factors])
    assert eccentric_girth(product) == expected


def test_p8_p6_product_has_two_acyclic_components():
    product, _ = cartesian_product([path(8), path(6)])
    eg = eccentric_graph(product)
    comps = connected_components(eg)
    nontrivial = [c for c in comps if len(c) > 1]
    assert len(nontrivial) == 2
    assert girth(eg) == 0


def test_grid_closed_form():
    for m in range(3, 13):
        for n in range(3, 13):
            product, _ = cartesian_product([path(m), path(n)])
            assert grid_eccentric_closed_form(m, n) == eccentric_graph(product), (m, n)
    assert girth(grid_eccentric_closed_form(4, 6)) == 0
    assert girth(grid_eccentric_closed_form(5, 7)) == 3
    with pytest.raises(UnsupportedSizeError):
        grid_eccentric_closed_form(2, 5)


def test_grid_closed_form_counts_are_the_built_graph(monkeypatch):
    counted = []
    monkeypatch.setattr(products, "check_size", lambda *args: counted.append(args))
    for m in range(3, 20):
        for n in range(3, 20):
            counted.clear()
            g = grid_eccentric_closed_form(m, n)
            assert counted == [(f"E(grid({m}, {n}))", g.num_vertices, g.num_edges)]


def test_two_row_grid_boundary_case():
    # The quadrant closed form needs m, n >= 3: the 3x2 grid's eccentric
    # graph has girth 6, not the 4 the mixed-parity rule would give.
    product, _ = cartesian_product([path(3), path(2)])
    assert eccentric_girth(product) == 6


def test_cycle_product_structure():
    r = cycle_product_structure(4, 3)
    assert (r.component_type, r.num_components, r.component_length) == ("disjoint-cycles", 2, 6)
    r = cycle_product_structure(4, 4)
    assert (r.component_type, r.predicted_girth, r.num_components) == ("matching", 0, 8)
    assert cycle_product_structure(3, 3).predicted_girth == 3
    assert cycle_product_structure(5, 7).predicted_girth == 4
    with pytest.raises(InputError):
        cycle_product_structure(2, 4)


def test_cycle_product_structure_matches_brute_force():
    for n, m in ((4, 3), (3, 4), (4, 4), (3, 3), (5, 7), (6, 5)):
        r = cycle_product_structure(n, m)
        product, _ = cartesian_product([cycle(n), cycle(m)])
        eg = eccentric_graph(product)
        assert girth(eg) == r.predicted_girth
        comps = connected_components(eg)
        assert len(comps) == r.num_components
        assert {len(c) for c in comps} == {r.component_length}
        assert eg.num_edges == r.num_edges


def test_odd_cycle_product_is_one_component():
    r = cycle_product_structure(5, 7)
    assert (r.num_components, r.component_length, r.num_edges) == (1, 35, 70)


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_cn_cn_isomorphism(n):
    from ecclab.graphs import apply_vertex_map

    perm = cn_cn_isomorphism(n)
    assert sorted(perm) == list(range(n * n))
    box, _ = cartesian_product([cycle(n), cycle(n)])
    tensor = kronecker_product_graph(cycle(n), cycle(n))
    assert apply_vertex_map(box, perm) == tensor


def test_cn_cn_isomorphism_rejects_even():
    with pytest.raises(PreconditionError):
        cn_cn_isomorphism(4)
