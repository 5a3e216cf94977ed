"""Invertibility classification of eccentricity matrices of tree products.

The eccentricity matrix of T_1 box ... box T_k is invertible exactly when
one factor is a star (P_2 and P_3 included) or P_4 and every other factor
is P_2. The classification is decided here by exact determinants, fully
independent of the closed-form value of det E(S_n box P_2^j), which the
probe compares with the computed determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .eccentric import _adjacency_determinant, eccentric_adjacency, eccentricity_determinant
from .errors import InputError
from .families import path, star
from .graphs import Graph, check_matrix_side
from .products import cartesian_product
from .trees import Tree, is_p2, is_p4, is_star


@dataclass(frozen=True)
class InvertibilityCheck:
    predicted: bool
    det: int

    @property
    def computed(self) -> bool:
        return self.det != 0

    @property
    def agree(self) -> bool:
        return self.predicted == self.computed

def predicted_invertible(factor_trees: Sequence[Tree]) -> bool:
    """True iff some factor is a star or P_4 and all the others are P_2."""
    for i, t in enumerate(factor_trees):
        if not (is_star(t) or is_p4(t)):
            continue
        if all(is_p2(other) for j, other in enumerate(factor_trees) if j != i):
            return True
    return False


def _product_graph(factor_trees: Sequence[Tree]) -> Graph:
    """The product of the trees, once its side is within
    ``graphs.MATRIX_SIDE_CAP``."""
    check_matrix_side(math.prod(t.num_vertices for t in factor_trees))
    if len(factor_trees) == 1:
        return factor_trees[0].graph
    g, _ = cartesian_product([t.graph for t in factor_trees])
    return g


def check_invertibility_classification(factor_trees: Sequence[Tree]) -> InvertibilityCheck:
    """Compare the star/P_4 prediction with the exact determinant."""
    predicted = predicted_invertible(factor_trees)
    return InvertibilityCheck(predicted, eccentricity_determinant(_product_graph(factor_trees)))


@dataclass(frozen=True)
class DeterminantProbe:
    n_leaves: int
    num_p2: int
    computed_det: int
    smallest_entry: int
    largest_entry: int
    factored_form: str
    matches: bool


def star_product_determinant_probe(n_leaves: int, num_p2: int) -> DeterminantProbe:
    """Compare det E(S_n box P_2^j) with its closed form.

    The closed form is sigma * (n * a^2 * b^(n-1)) ^ (2^j) with a = j+1 and
    b = j+2, the matrix's smallest nonzero and largest entries. The probe
    reads them off the eccentricities of the one kernel run that also gives
    the determinant, with no matrix built: row v of ε(G) is e(v) at the
    vertices eccentric to v and nowhere exceeds e(v), so the smallest
    nonzero entry is G's radius and the largest its diameter.
    The sign sigma is (-1)^n for j = 0, (-1)^(n+1) for j = 1 and +1 for
    j >= 2:

    - j = 0: with the center first, E(S_n) = [[0, 1^T], [1, 2(J - I)]]. The
      Schur complement of the n x n block D = 2(J - I), for which
      D 1 = 2(n-1) 1 and det D = (-1)^(n-1) (n-1) 2^n, gives
      det = -det D * 1^T D^-1 1 = (-1)^n n 2^(n-1).
    - j >= 1: every component of E(S_n box P_2^j) is bipartite with sides
      of equal size (the tests check n = 2..15, j = 1..3). By
      ``eccentricity_determinant``'s rule a component with sides X, Y gives
      (-1)^|X| det(B)^2, so sigma = (-1)^(N/2) with N = (n+1) 2^j: that is
      (-1)^(n+1) for j = 1, and +1 for j >= 2, where N/2 is even.
    """
    if n_leaves < 2:
        raise InputError("probe needs a star with at least two leaves")
    if num_p2 not in (0, 1, 2, 3):
        raise InputError("num_p2 must be in 0..3")
    factors = [Tree(star(n_leaves))] + [Tree(path(2))] * num_p2
    g = _product_graph(factors)
    ecc, nbrs = eccentric_adjacency(g)
    det = _adjacency_determinant(ecc, nbrs)
    a, b = num_p2 + 1, num_p2 + 2
    sign = 1 if num_p2 >= 2 else (-1) ** (n_leaves + num_p2)
    predicted = sign * (n_leaves * a * a * b ** (n_leaves - 1)) ** (2**num_p2)
    form = f"{sign:+d} * ({n_leaves} * {a}^2 * {b}^{n_leaves - 1}) ^ 2^{num_p2}"
    return DeterminantProbe(
        n_leaves=n_leaves,
        num_p2=num_p2,
        computed_det=det,
        smallest_entry=min(ecc),
        largest_entry=max(ecc),
        factored_form=form,
        matches=det == predicted,
    )
