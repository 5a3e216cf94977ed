import itertools
import re
import time

import pytest

from ecclab import families
from ecclab.eccentric import eccentric_graph
from ecclab.errors import InputError, SizeCapError
from ecclab.families import (
    _SIZES,
    FAMILIES,
    FamilySpec,
    build_family,
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


def test_size_counts_match_the_built_graphs():
    # The gen caps read these counts in place of the graph.
    for family, build in FAMILIES.items():
        arity = build.__code__.co_argcount
        for params in itertools.product(range(1, 6), repeat=arity):
            try:
                g = build(*params)
            except InputError:
                continue
            assert _SIZES[family](*params) == (g.num_vertices, g.num_edges), (family, params)


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
    built = []
    monkeypatch.setitem(families._EXPECTED, "complete", lambda n: built.append(n))
    spec = FamilySpec("complete", (1000,))
    for call in (build_family, expected_eccentric):
        with pytest.raises(SizeCapError, match="499500 edges exceeds the cap"):
            call(spec)
    assert built == []


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


def test_expected_sizes_match_the_built_eccentric_graphs():
    # The caps of ``expected_eccentric`` read these counts in place of E(G).
    for family, build in families._EXPECTED.items():
        arity = build.__code__.co_argcount
        for params in itertools.product(range(1, 7), repeat=arity):
            try:
                g = build(*params)
            except InputError:
                continue
            counts = families._EXPECTED_SIZES[family](*params)
            assert counts == (g.num_vertices, g.num_edges), (family, params)


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
