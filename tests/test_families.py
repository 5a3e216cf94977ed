import itertools
import re
import time

import pytest

from ecclab import families, products, trees
from ecclab.eccentric import eccentric_graph
from ecclab.errors import InputError, SizeCapError
from ecclab.families import (
    FAMILIES,
    FamilySpec,
    build_family,
    complete,
    complete_bipartite,
    cycle,
    double_star,
    expected_eccentric,
    grid,
    h_graph,
    hypercube,
    path,
    star,
)
from ecclab.products import grid_eccentric_closed_form
from ecclab.trees import random_tree


def test_constructor_shapes():
    assert path(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert cycle(4).num_edges == 4
    assert star(4).num_vertices == 5 and star(4).degree(0) == 4
    ds = double_star(3, 3)
    assert ds.num_vertices == 8 and ds.has_edge(0, 1)
    assert sorted(ds.degree(v) for v in range(8)) == [1] * 6 + [4, 4]
    h = h_graph(3)
    assert h.num_vertices == 9
    assert h.has_edge(0, 1) and h.has_edge(1, 2) and h.has_edge(0, 2)
    assert grid(3, 5).num_vertices == 15
    assert hypercube(3).num_vertices == 8
    assert hypercube(1) == path(2)
    assert complete_bipartite(2, 3).num_edges == 6


def test_constructor_validation():
    for bad in (lambda: path(0), lambda: cycle(2), lambda: star(0),
                lambda: double_star(0, 1), lambda: h_graph(-1)):
        with pytest.raises(InputError):
            bad()


def test_build_family_dispatch():
    assert build_family(FamilySpec("path", (8,))) == path(8)
    assert build_family(FamilySpec("grid", (3, 5))) == grid(3, 5)
    with pytest.raises(InputError):
        build_family(FamilySpec("wheel", (5,)))
    with pytest.raises(InputError):
        build_family(FamilySpec("path", (3, 4)))


@pytest.mark.parametrize("table", [FAMILIES, families._EXPECTED], ids=["family", "expected"])
def test_constructors_check_the_counts_they_build(monkeypatch, table):
    # Every constructor first passes its own name and the exact counts of
    # the graph it builds to ``check_size``; the constructors it calls
    # then check their own.
    checked = []
    monkeypatch.setattr(families, "check_size", lambda *args: checked.append(args))
    for family, build in table.items():
        arity = build.__code__.co_argcount
        for params in itertools.product(range(1, 7), repeat=arity):
            checked.clear()
            try:
                g = build(*params)
            except InputError:
                assert checked == [], (family, params)
                continue
            spec = FamilySpec(family, params)
            name = spec.name if table is FAMILIES else f"E({spec.name})"
            assert checked[0] == (name, g.num_vertices, g.num_edges), (family, params)


def test_expected_eccentric_labeled_examples():
    # E(P_8): double star with centers 0 and 7.
    assert set(expected_eccentric(FamilySpec("path", (8,))).edges) == {
        (0, 7), (0, 4), (0, 5), (0, 6), (1, 7), (2, 7), (3, 7)
    }
    # E(P_7): pendant triangle on 0, 3 and 6.
    assert set(expected_eccentric(FamilySpec("path", (7,))).edges) == {
        (0, 3), (0, 4), (0, 5), (0, 6), (1, 6), (2, 6), (3, 6)
    }
    # E(C_6): perfect matching of antipodes.
    assert set(expected_eccentric(FamilySpec("cycle", (6,))).edges) == {
        (0, 3), (1, 4), (2, 5)
    }
    # E(C_7): each vertex joins the two vertices 3 steps away.
    assert set(expected_eccentric(FamilySpec("cycle", (7,))).edges) == {
        (0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)
    }
    with pytest.raises(InputError):
        expected_eccentric(FamilySpec("grid", (3, 3)))


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("cycle", ()),
        FamilySpec("star", (2, 3)),
        FamilySpec("path", (4, 5)),
        FamilySpec("complete_bipartite", (3,)),
        FamilySpec("star", ("x",)),
    ],
)
def test_expected_eccentric_rejects_bad_parameters(spec):
    with pytest.raises(InputError, match="bad parameters"):
        expected_eccentric(spec)


def test_expected_eccentric_applies_the_size_caps_before_building(monkeypatch):
    # K_1000 has 499,500 edges: refused from its counts, as by build_family,
    # before any edge of it or of its eccentric graph is built.
    def refused(*args):
        raise AssertionError("an over-cap graph was built")

    monkeypatch.setattr(families, "_graph_unchecked", refused)
    spec = FamilySpec("complete", (1000,))
    for call in (build_family, expected_eccentric):
        with pytest.raises(SizeCapError, match="499500 edges exceeds the cap"):
            call(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        (FamilySpec("star", (0,)), "star needs at least one leaf"),
        (FamilySpec("star", (-3,)), "star needs at least one leaf"),
        (FamilySpec("complete", (1,)), "eccentric graph needs at least two vertices"),
        (FamilySpec("complete", (0,)), "eccentric graph needs at least two vertices"),
        (FamilySpec("path", (1,)), "eccentric graph needs at least two vertices"),
    ],
    ids=["star-0", "star-negative", "complete-1", "complete-0", "path-1"],
)
def test_expected_eccentric_rejects_inputs_with_no_eccentric_graph(spec, message):
    # K_1 has no eccentric graph, and star(0) is no graph at all.
    with pytest.raises(InputError, match=f"^{message}$"):
        expected_eccentric(spec)


@pytest.mark.parametrize(
    "build, args, message",
    [
        (path, (20_001,), "path(20001) on 20001 vertices"),
        (star, (20_000,), "star(20000) on 20001 vertices"),
        (complete, (1000,), "complete(1000) with 499500 edges"),
        (random_tree, (20_001, 0), "random-tree(20001, seed=0) on 20001 vertices"),
        (grid_eccentric_closed_form, (200, 101), "E(grid(200, 101)) on 20200 vertices"),
        (hypercube, (15,), "hypercube(15) on 32768 vertices"),
    ],
    ids=["path", "star", "complete", "random-tree", "grid-closed-form", "hypercube"],
)
def test_library_constructors_apply_the_size_caps_before_building(
    monkeypatch, build, args, message
):
    # Direct calls are capped as ``gen`` is: no edge of the graph exists.
    def refused(*args):
        raise AssertionError("an over-cap graph was built")

    for module, name in [(families, "_graph_unchecked"), (families, "cartesian_product"),
                         (trees, "prufer_decode"), (trees, "_tree_unchecked"),
                         (products, "_tensor_rows"), (products, "_graph_unchecked")]:
        monkeypatch.setattr(module, name, refused)
    start = time.perf_counter()
    with pytest.raises(SizeCapError, match=f"^{re.escape(message)} exceeds the cap of "):
        build(*args)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "spec, edges",
    [
        (FamilySpec("star", (2000,)), 2001000),
        (FamilySpec("complete_bipartite", (2, 3000)), 4498501),
    ],
)
def test_expected_eccentric_caps_the_eccentric_graphs_own_edges(spec, edges):
    # S_2000 and K_{2,3000} are within the caps, but E(S_2000) = K_2001 and
    # E(K_{2,3000}) = K_2 + K_3000 are not: refused from their counts.
    start = time.perf_counter()
    message = re.escape(f"E({spec.name}) with {edges} edges exceeds the cap")
    with pytest.raises(SizeCapError, match=message):
        expected_eccentric(spec)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", range(2, 12))
def test_catalog_paths(n):
    spec = FamilySpec("path", (n,))
    assert eccentric_graph(build_family(spec)) == expected_eccentric(spec)


@pytest.mark.parametrize("n", range(3, 12))
def test_catalog_cycles(n):
    spec = FamilySpec("cycle", (n,))
    assert eccentric_graph(build_family(spec)) == expected_eccentric(spec)


@pytest.mark.parametrize("n", range(2, 8))
def test_catalog_complete(n):
    spec = FamilySpec("complete", (n,))
    assert eccentric_graph(build_family(spec)) == expected_eccentric(spec)


@pytest.mark.parametrize("s", range(2, 6))
@pytest.mark.parametrize("t", range(2, 6))
def test_catalog_complete_bipartite(s, t):
    spec = FamilySpec("complete_bipartite", (s, t))
    assert eccentric_graph(build_family(spec)) == expected_eccentric(spec)


@pytest.mark.parametrize("n", range(1, 8))
def test_catalog_stars(n):
    spec = FamilySpec("star", (n,))
    assert eccentric_graph(build_family(spec)) == expected_eccentric(spec)
