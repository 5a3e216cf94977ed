"""Eccentric graph, eccentricity matrix and its determinant, of a connected graph.

A vertex u is *eccentric to* v when d(u,v) = e(v); the relation is not
symmetric. The eccentric graph joins u and v when either is eccentric to
the other, which is equivalent to d(u,v) = min(e(u), e(v)). Everything here
reads only the eccentricities and eccentric sets of ``graphs.eccentric_sets``;
the tests cross-check it against BFS and Floyd-Warshall distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .graphs import (
    Graph,
    _component_masks,
    _graph_from_bitsets,
    bitset_girth,
    check_size,
    eccentric_sets,
    members,
)
from .intmatrix import IntMatrix, _bareiss


@dataclass(frozen=True)
class EccentricityProfile:
    """The eccentricities and eccentric sets of a connected graph:
    ``ecc[v]`` is e(v), and bit u of ``far[v]`` is set iff u is eccentric
    to v, i.e. d(u,v) = e(v)."""

    ecc: tuple[int, ...]
    far: tuple[int, ...]


def eccentricity_profile(g: Graph) -> EccentricityProfile:
    ecc, far = eccentric_sets(g)
    return EccentricityProfile(ecc=ecc, far=far)


def eccentric_adjacency(
    g: Graph, keep: Optional[int] = None
) -> tuple[tuple[int, ...], list[int]]:
    """Eccentricities of g and, per vertex, the bitset of its neighbours in
    E(g): u ~ v iff u is eccentric to v or v to u.

    With the vertex bitset ``keep`` this is E(g[keep]), the eccentric graph
    of the subgraph that ``keep`` induces, in g's labels: a vertex outside
    ``keep`` has eccentricity 0 and no neighbours."""
    if (g.num_vertices if keep is None else keep.bit_count()) < 2:
        raise InputError("eccentric graph requires at least two vertices")
    ecc, far = eccentric_sets(g, keep)
    # v in far[u] means d(u,v) = e(u) <= e(v), and when e(u) = e(v) u is in
    # far[v] already; so only the v of larger eccentricity need u's bit.
    by_ecc = [0] * (max(ecc) + 2)
    for v, e in enumerate(ecc):
        by_ecc[e] |= 1 << v
    above = [0] * len(by_ecc)
    for e in range(len(above) - 2, -1, -1):
        above[e] = above[e + 1] | by_ecc[e + 1]
    nbrs = list(far)
    for u, mask in enumerate(far):
        bit = 1 << u
        for v in members(mask & above[ecc[u]]):
            nbrs[v] |= bit
    return ecc, nbrs


def eccentric_graph(g: Graph) -> Graph:
    """Graph joining u,v whenever d(u,v) = min(e(u), e(v)), once its edges,
    counted from E(g)'s bitsets, are within the caps of ``check_size``."""
    _, nbrs = eccentric_adjacency(g)
    check_size("E(G)", len(nbrs), sum(map(int.bit_count, nbrs)) // 2)
    return _graph_from_bitsets(nbrs)


def eccentricity_rows(g: Graph) -> list[list[tuple[int, int]]]:
    """The eccentricity matrix by its nonzero entries: row u lists the
    pairs (v, min(e(u), e(v))) for the neighbours v of u in E(g), in
    ascending v. A row has deg_E(u) entries, where the matrix has n. E(g)'s
    edges are held to the caps of ``check_size`` first, as by
    ``eccentric_graph``."""
    ecc, nbrs = eccentric_adjacency(g)
    check_size("E(G)", len(nbrs), sum(map(int.bit_count, nbrs)) // 2)
    rows = []
    for u, mask in enumerate(nbrs):
        eu = ecc[u]
        rows.append([(v, eu if eu < ecc[v] else ecc[v]) for v in members(mask)])
    return rows


def eccentricity_matrix(g: Graph) -> IntMatrix:
    """Distance matrix with entries zeroed unless they attain min(e(u), e(v)):
    ``eccentricity_rows`` written out densely, so no distance table is
    needed."""
    n = g.num_vertices
    rows = []
    for sparse in eccentricity_rows(g):
        row = [0] * n
        for v, x in sparse:
            row[v] = x
        rows.append(tuple(row))
    return IntMatrix(rows=n, cols=n, entries=tuple(rows))


def eccentricity_determinant(g: Graph) -> int:
    """det ε(g), exact, with no n x n table.

    ε(g)'s nonzero pattern is E(g), so ordering the vertices component by
    component of E(g), a symmetric permutation that keeps the determinant,
    makes ε(g) block-diagonal with one block per component, and each
    block's grid is filled from E(g)'s neighbour bitsets with the entry
    min(e(u), e(v)) on an edge uv. A bipartite component with sides X and
    Y is [[0, B], [Bᵀ, 0]], ε(g) being symmetric: its determinant is 0
    when |X| != |Y| and otherwise (-1)^|X| det(B)^2, one Bareiss run of
    side |X|. Any other component is one Bareiss run on the whole block."""
    return _adjacency_determinant(*eccentric_adjacency(g))


def _adjacency_determinant(ecc: tuple[int, ...], nbrs: list[int]) -> int:
    """``eccentricity_determinant`` from the eccentricities and E(g)'s
    neighbour bitsets that ``eccentric_adjacency`` returns."""
    column = [0] * len(nbrs)

    def grid(xs: list[int], ys: list[int]) -> list[list[int]]:
        for j, v in enumerate(ys):
            column[v] = j
        rows = []
        for u in xs:
            row = [0] * len(ys)
            eu = ecc[u]
            for v in members(nbrs[u]):
                ev = ecc[v]
                row[column[v]] = eu if eu < ev else ev
            rows.append(row)
        return rows

    det = 1
    for block, even in _component_masks(nbrs):
        odd = block ^ even
        xs, ys = members(even), members(odd)
        # Bipartite iff no edge has both ends on one side.
        if any(nbrs[v] & even for v in xs) or any(nbrs[v] & odd for v in ys):
            vs = members(block)
            det *= _bareiss(grid(vs, vs))
        elif len(xs) != len(ys):
            return 0
        else:
            det_b = _bareiss(grid(xs, ys))
            det *= -det_b * det_b if len(xs) % 2 else det_b * det_b
        if not det:
            return 0
    return det


def eccentric_girth(g: Graph) -> int:
    """Girth of the eccentric graph (0 when it is acyclic), read off E(g)'s
    neighbour bitsets with no ``Graph`` built."""
    return bitset_girth(eccentric_adjacency(g)[1])
