"""Eccentric graph and eccentricity matrix of a connected graph.

A vertex u is *eccentric to* v when d(u,v) = e(v); the relation is not
symmetric. The eccentric graph joins u and v when either is eccentric to
the other, which is equivalent to d(u,v) = min(e(u), e(v)). The min
formulation is the single source of truth here; the or-of-directions
formulation lives in the test oracle so the two can be cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import DistanceData, Graph, all_pairs_distances, girth
from .intmatrix import IntMatrix


@dataclass(frozen=True)
class EccentricityProfile:
    """A graph with its distances and eccentricities, for is_eccentric."""

    graph: Graph
    distances: DistanceData


def eccentricity_profile(g: Graph) -> EccentricityProfile:
    return EccentricityProfile(graph=g, distances=all_pairs_distances(g))


def is_eccentric(p: EccentricityProfile, u: int, v: int) -> bool:
    """True iff u is eccentric to v, i.e. d(u,v) = e(v)."""
    return p.distances.dist[v][u] == p.distances.ecc[v]


def _require_eccentric_domain(g: Graph) -> DistanceData:
    if g.num_vertices < 2:
        raise InputError("eccentric graph requires at least two vertices")
    return all_pairs_distances(g)


def eccentric_graph(g: Graph) -> Graph:
    """Graph joining u,v whenever d(u,v) = min(e(u), e(v))."""
    dd = _require_eccentric_domain(g)
    dist = dd.dist
    ecc = dd.ecc
    edges = []
    for u in range(g.num_vertices):
        row = dist[u]
        eu = ecc[u]
        for v in range(u + 1, g.num_vertices):
            ev = ecc[v]
            if row[v] == (eu if eu < ev else ev):
                edges.append((u, v))
    return Graph(g.num_vertices, tuple(edges))


def eccentricity_matrix(g: Graph) -> IntMatrix:
    """Distance matrix with entries zeroed unless they attain min(e(u), e(v))."""
    dd = _require_eccentric_domain(g)
    dist = dd.dist
    ecc = dd.ecc
    n = g.num_vertices
    rows = []
    for u in range(n):
        row = dist[u]
        eu = ecc[u]
        rows.append(
            tuple(
                row[v] if row[v] == (eu if eu < ecc[v] else ecc[v]) else 0
                for v in range(n)
            )
        )
    return IntMatrix(rows=n, cols=n, entries=tuple(rows))


def eccentric_girth(g: Graph) -> int:
    """Girth of the eccentric graph (0 when it is acyclic)."""
    return girth(eccentric_graph(g))
