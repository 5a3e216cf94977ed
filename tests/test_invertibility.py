import sys

import pytest

from conftest import fraction_determinant
from ecclab import graphs, invertibility
from ecclab.eccentric import eccentric_graph, eccentricity_matrix
from ecclab.errors import InputError, SizeCapError
from ecclab.families import double_star, hypercube, path, star
from ecclab.intmatrix import determinant_oracle
from ecclab.invertibility import (
    check_invertibility_classification,
    predicted_invertible,
    star_product_determinant_probe,
)
from ecclab.products import cartesian_product
from ecclab.trees import Tree


def trees(*graphs):
    return [Tree(g) for g in graphs]


def test_predicted_invertible():
    assert predicted_invertible(trees(star(4)))
    assert predicted_invertible(trees(path(4), path(2), path(2)))
    assert predicted_invertible(trees(path(2), path(2)))  # P_2 is itself a star
    assert not predicted_invertible(trees(path(5), path(2)))
    assert not predicted_invertible(trees(path(3), path(3)))
    assert not predicted_invertible(trees(star(3), path(3)))
    assert not predicted_invertible(trees(double_star(2, 2), path(2)))


@pytest.mark.parametrize(
    "factors",
    [
        trees(star(3)),
        trees(path(4)),
        trees(path(4), path(2), path(2)),
        trees(star(2), path(2)),
        trees(path(5), path(2)),
        trees(path(3), path(3)),
        trees(star(3), path(3)),
        trees(double_star(3, 3), path(2)),
    ],
)
def test_classification_agrees_with_determinant(factors):
    result = check_invertibility_classification(factors)
    assert result.agree
    assert result.computed == (result.det != 0)


def test_classification_specific_determinants():
    assert check_invertibility_classification(trees(star(3))).det == -12
    assert check_invertibility_classification(trees(path(2))).det == -1
    assert check_invertibility_classification(trees(path(5), path(2))).det == 0


def test_classification_side_cap():
    with pytest.raises(SizeCapError):
        check_invertibility_classification(trees(path(100), path(100)))


def test_star_probe_side_cap():
    # S_600 box P_2^3 has side 601 * 8 = 4808.
    with pytest.raises(SizeCapError):
        star_product_determinant_probe(600, 3)


def test_star_probe_matches_block_form():
    for n_leaves, num_p2 in ((2, 0), (3, 0), (3, 1), (4, 1), (3, 2), (2, 3)):
        probe = star_product_determinant_probe(n_leaves, num_p2)
        assert probe.matches, probe.factored_form
        assert probe.computed_det != 0
        # Both signs of j = 0 and of j = 1, and j = 2, 3, against oracles
        # that share no code with the block path.
        g = cartesian_product([star(n_leaves)] + [path(2)] * num_p2)[0] if num_p2 else star(n_leaves)
        m = eccentricity_matrix(g)
        oracle = determinant_oracle(m) if m.rows <= 9 else fraction_determinant(m.entries)
        assert probe.computed_det == oracle
        assert probe.smallest_entry == min(min(filter(None, row)) for row in m.entries)
        assert probe.largest_entry == max(map(max, m.entries))
    # S_3 box P_2: entries 2 (center-leaf) and 3 (leaf-leaf), |det| = (3*4*3^2)^2.
    probe = star_product_determinant_probe(3, 1)
    assert (probe.smallest_entry, probe.largest_entry) == (2, 3)
    assert abs(probe.computed_det) == 11664


@pytest.mark.parametrize("num_p2", [1, 2, 3])
def test_star_product_eccentric_graph_is_balanced_bipartite(num_p2):
    # The premise of the probe's sign for j >= 1: each component of
    # E(S_n box P_2^j) 2-colours with as many vertices of either colour.
    for n_leaves in range(2, 16):
        eg = eccentric_graph(cartesian_product([star(n_leaves)] + [path(2)] * num_p2)[0])
        colour = [None] * eg.num_vertices
        for root in range(eg.num_vertices):
            if colour[root] is not None:
                continue
            colour[root] = 0
            queue, sides = [root], [1, 0]
            for u in queue:
                for v in eg.adjacency[u]:
                    if colour[v] is None:
                        colour[v] = 1 - colour[u]
                        sides[colour[v]] += 1
                        queue.append(v)
                    assert colour[v] != colour[u], (n_leaves, num_p2, u, v)
            assert sides[0] == sides[1], (n_leaves, num_p2, root, sides)


def test_star_probe_compares_the_sign(monkeypatch):
    real = invertibility._adjacency_determinant
    monkeypatch.setattr(
        invertibility, "_adjacency_determinant", lambda ecc, nbrs: -real(ecc, nbrs)
    )
    probe = star_product_determinant_probe(3, 1)
    assert abs(probe.computed_det) == 11664
    assert not probe.matches


def test_star_probe_runs_the_kernel_once(monkeypatch):
    # Count the kernel through every module binding of it.
    runs = []
    real = graphs.eccentric_sets

    def counted(*args):
        runs.append(args)
        return real(*args)

    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("ecclab") and getattr(module, "eccentric_sets", None) is real:
            monkeypatch.setattr(module, "eccentric_sets", counted)
    probe = star_product_determinant_probe(7, 2)
    assert probe.matches
    assert (probe.smallest_entry, probe.largest_entry) == (3, 4)
    assert len(runs) == 1


def test_star_probe_validation():
    with pytest.raises(InputError):
        star_product_determinant_probe(1, 0)
    with pytest.raises(InputError):
        star_product_determinant_probe(3, 4)


@pytest.mark.parametrize("k", range(1, 6))
def test_hypercube_matrix_is_k_times_antidiagonal(k):
    # E(P_2^k) equals k * J_{2^k} under binary vertex ordering, where J has
    # ones on the antidiagonal and zeros elsewhere.
    size = 2**k
    expected = tuple(
        tuple(k if j == size - 1 - i else 0 for j in range(size)) for i in range(size)
    )
    assert eccentricity_matrix(hypercube(k)).entries == expected
