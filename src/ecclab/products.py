"""Cartesian and Kronecker graph products and their eccentric structure.

Flat vertex indices are row-major with the first factor most significant,
fixed once in ProductIndexMap, which ``intmatrix.kronecker_matrix`` follows
too; every cross-module comparison (identity-map equalities, matrix
factorizations) relies on this single convention.

``_tensor_rows`` builds, in that order, the bitset rows of the relation
"related in every coordinate" from the factors' rows: the Kronecker
product's adjacency, the componentwise eccentric sets, E(a) x E(b) and the
grid's quadrant corners.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .eccentric import eccentric_adjacency, eccentricity_profile
from .errors import InputError, PreconditionError, UnsupportedSizeError
from .graphs import (
    Graph,
    _graph_from_bitsets,
    _graph_unchecked,
    all_pairs_distances,
    bitset_girth,
    check_size,
    is_connected,
    members,
)
from .trees import Tree, is_p2


@dataclass(frozen=True)
class ProductIndexMap:
    """Bijection between coordinate tuples and flat product indices."""

    factor_sizes: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.factor_sizes)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        strides = []
        s = 1
        for n in reversed(self.factor_sizes):
            strides.append(s)
            s *= n
        return tuple(reversed(strides))

    def flatten(self, coords: Sequence[int]) -> int:
        """The flat index of ``coords``; InputError unless there is one
        coordinate per factor, each in ``0..n_i-1``."""
        if len(coords) != len(self.factor_sizes):
            raise InputError(f"{len(coords)} coordinates for {len(self.factor_sizes)} factors")
        index = 0
        for x, n, s in zip(coords, self.factor_sizes, self.strides):
            if not 0 <= x < n:
                raise InputError(f"coordinate {x} outside 0..{n - 1}")
            index += x * s
        return index

    def unflatten(self, index: int) -> tuple[int, ...]:
        """The coordinates of ``index``; InputError unless it is in
        ``0..size-1``."""
        if not 0 <= index < self.size:
            raise InputError(f"index {index} outside 0..{self.size - 1}")
        coords = []
        for n, s in zip(self.factor_sizes, self.strides):
            coords.append((index // s) % n)
        return tuple(coords)


def _tensor_rows(relations: Sequence[Sequence[int]]) -> list[int]:
    """Bitset rows of the product relation in ProductIndexMap's flat order:
    bit v of row u is set iff bit v_i of ``relations[i][u_i]`` is set for
    every i, where ``relations[i]`` holds factor i's rows.

    The factors are added one at a time. For a factor of n vertices, each
    row built so far has its members spread to multiples of n, then is
    multiplied by the factor's row: the shifted copies of that row fill
    disjoint n-bit windows, so the integer product is their union."""
    rows = [1]
    for relation in relations:
        n = len(relation)
        spread = [sum(1 << (v * n) for v in members(row)) for row in rows]
        rows = [s * r for s in spread for r in relation]
    return rows


def cartesian_product(factors: Sequence[Graph]) -> tuple[Graph, ProductIndexMap]:
    """Vertices are coordinate tuples; edges change exactly one coordinate
    along an edge of that factor.

    Each vertex lists its higher neighbours factor by factor from stride 1
    upward, so the edges come out sorted and distinct: a step along one
    factor is shorter than any step along the factor before it."""
    if len(factors) < 2:
        raise InputError("need at least two factors")
    # The caps first: the connectivity test costs O(n^2) bit work on a
    # factor with many components. Factor i's m_i edges appear once per
    # vertex of the other factors, size / n_i of them.
    index_map = ProductIndexMap(tuple(g.num_vertices for g in factors))
    size = index_map.size
    num_edges = sum(g.num_edges * size // g.num_vertices for g in factors) if size else 0
    check_size("product", size, num_edges)
    for g in factors:
        if g.num_vertices < 2:
            raise InputError("each factor needs at least two vertices")
        if not is_connected(g):
            raise InputError("each factor must be connected")
    # Per factor, stride 1 first: for each coordinate x, the flat offsets of
    # its neighbours w > x.
    steps = [
        [[(w - x) * s for w in g.adjacency[x] if w > x] for x in range(g.num_vertices)]
        for g, s in zip(reversed(factors), reversed(index_map.strides))
    ]
    edges = []
    coordinates = itertools.product(*(range(n) for n in index_map.factor_sizes))
    for flat, coords in enumerate(coordinates):
        for factor_steps, x in zip(steps, reversed(coords)):
            edges.extend([(flat, flat + d) for d in factor_steps[x]])
    return Graph(size, tuple(edges)), index_map


def kronecker_product_graph(a: Graph, b: Graph) -> Graph:
    """Tuples adjacent iff adjacent in both coordinates; same index layout
    as the 2-factor Cartesian product."""
    if a.num_vertices < 2 or b.num_vertices < 2:
        raise InputError("each factor needs at least two vertices")
    # Edges uv of a and xy of b give two: (u, x)(v, y) and (u, y)(v, x).
    check_size("product", a.num_vertices * b.num_vertices, 2 * a.num_edges * b.num_edges)
    return _graph_from_bitsets(_tensor_rows([a.neighbour_bitsets, b.neighbour_bitsets]))


def _coordinate_sums(parts: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """``parts[0][y_0] + ... + parts[k-1][y_{k-1}]`` for every coordinate
    tuple y, in flat order: one list comprehension per factor."""
    sums = parts[0]
    for part in parts[1:]:
        sums = [t + p for t in sums for p in part]
    return tuple(sums)


def check_additivity(factors: Sequence[Graph]) -> bool:
    """Product distances and eccentricities equal the sums over factors,
    with the product side computed by direct BFS. The BFS row of u is
    compared with the sums of the factors' rows at u's coordinates."""
    product, _ = cartesian_product(factors)
    dd = all_pairs_distances(product)
    factor_dd = [all_pairs_distances(g) for g in factors]
    if dd.ecc != _coordinate_sums([fd.ecc for fd in factor_dd]):
        return False
    factor_rows = itertools.product(*(fd.dist for fd in factor_dd))
    return all(row == _coordinate_sums(rows) for row, rows in zip(dd.dist, factor_rows))


def check_componentwise_eccentric(factors: Sequence[Graph]) -> bool:
    """v eccentric to u in the product iff v_i eccentric to u_i in every factor:
    the product's eccentric sets are the tensor rows of the factors'."""
    product, _ = cartesian_product(factors)
    far = eccentricity_profile(product).far
    return list(far) == _tensor_rows([eccentricity_profile(g).far for g in factors])


def check_kronecker_correspondence(a: Graph, b: Graph) -> bool:
    """For self-centered factors, E(a box b) equals E(a) x E(b) as labeled
    graphs under the shared index map (the isomorphism is the identity):
    E(a box b)'s neighbour bitsets are the tensor rows of E(a)'s and
    E(b)'s."""
    factor_nbrs = []
    for g in (a, b):
        ecc, nbrs = eccentric_adjacency(g)
        if min(ecc) != max(ecc):
            raise PreconditionError("factors must be self-centered (constant eccentricity)")
        factor_nbrs.append(nbrs)
    product, _ = cartesian_product([a, b])
    return eccentric_adjacency(product)[1] == _tensor_rows(factor_nbrs)


def _general_product_girth(girths: Sequence[int]) -> Optional[int]:
    """The general theorems on the factors' eccentric girths: 3 if every
    factor has eccentric girth 3; 4 when at least two factors have nonzero
    eccentric girth and not all are 3; None otherwise."""
    if all(g == 3 for g in girths):
        return 3
    if sum(1 for g in girths if g > 2) >= 2:
        return 4
    return None


def _has_four_cycle(nbrs: Sequence[int]) -> bool:
    """True iff some vertex pair has at least two common neighbours; the
    graph is given by its neighbour bitsets."""
    n = len(nbrs)
    for u in range(n):
        mask = nbrs[u]
        for v in range(u + 1, n):
            if (mask & nbrs[v]).bit_count() >= 2:
                return True
    return False


def predicted_tree_product_girth(factor_trees: Sequence[Tree]) -> int:
    """Eccentric girth of a Cartesian product of trees: 0 / 3 / 4 / 6. The
    general rule decides first; then 0 when every E(T_i) is acyclic, and 6
    when one factor is not P_2 and its eccentric graph has a triangle but no
    4-cycle; 4 otherwise. Each E(T_i) is read as neighbour bitsets."""
    if len(factor_trees) < 2:
        raise InputError("need at least two factors")
    heads = [eccentric_adjacency(t.graph)[1] for t in factor_trees]
    girths = [bitset_girth(nbrs) for nbrs in heads]
    general = _general_product_girth(girths)
    if general is not None:
        return general
    if all(g == 0 for g in girths):
        return 0
    non_p2 = [(g, nbrs) for t, g, nbrs in zip(factor_trees, girths, heads) if not is_p2(t)]
    if len(non_p2) == 1:
        g, nbrs = non_p2[0]
        if g == 3 and not _has_four_cycle(nbrs):
            return 6
    return 4


def _path_far_ends(k: int) -> list[tuple[int, int]]:
    """The pairs (x, e) in which the end e of the path 0-1-...-(k-1) is
    eccentric to x: the end k-1 when 2x <= k-1 and the end 0 when
    2x >= k-1, so the middle of an odd path has both."""
    return [(x, k - 1) for x in range(k) if 2 * x <= k - 1] + [
        (x, 0) for x in range(k) if 2 * x >= k - 1
    ]


def grid_eccentric_closed_form(m: int, n: int) -> Graph:
    """Closed-form eccentric graph of the m x n grid: each vertex joins the
    opposite corner(s) of every quadrant containing it, which are the tensor
    rows of the two paths' far ends. Valid for m, n >= 3; the m=2 boundary
    deviates (see the product girth classification)."""
    if m < 3 or n < 3:
        raise UnsupportedSizeError("closed form requires m, n >= 3")
    # Vertex (x, y) lists a corner per pair of far ends of x in P_m and y in
    # P_n, which the middle of an odd path has two of: (m + m%2)(n + n%2)
    # pairs, in which each diagonal between opposite corners appears twice.
    check_size(f"E(grid({m}, {n}))", m * n, (m + m % 2) * (n + n % 2) - 2)
    far_ends = []
    for k in (m, n):
        rows = [0] * k
        for x, e in _path_far_ends(k):
            rows[x] |= 1 << e
        far_ends.append(rows)
    corners = _tensor_rows(far_ends)
    return _graph_unchecked(m * n, ((u, c) for u, row in enumerate(corners) for c in members(row)))


@dataclass(frozen=True)
class CycleProductReport:
    """Predicted structure of the eccentric graph of C_n box C_m: its girth,
    its components (all of one size) and its edge count."""

    n: int
    m: int
    component_type: str  # "matching" | "disjoint-cycles" | "connected-form"
    predicted_girth: int
    num_components: int
    component_length: int
    num_edges: int


def cycle_product_structure(n: int, m: int) -> CycleProductReport:
    """Classification of E(C_n box C_m) = E(C_n) x E(C_m).

    A vertex of an even cycle has one eccentric vertex and a vertex of an
    odd cycle two, so E(C_n box C_m) is regular of degree
    (1 + n%2)(1 + m%2): a perfect matching when both are even; even/2
    cycles of length 2*odd when exactly one is; and, as the Kronecker
    product of two odd cycles is connected, one component of girth 3 for
    two triangles and 4 otherwise when both are odd."""
    if n < 3 or m < 3:
        raise InputError("cycles need at least three vertices")
    size = n * m
    num_edges = size * (1 + n % 2) * (1 + m % 2) // 2
    if n % 2 == 0 and m % 2 == 0:
        return CycleProductReport(n, m, "matching", 0, size // 2, 2, num_edges)
    if n % 2 == 0 or m % 2 == 0:
        even, odd = (n, m) if n % 2 == 0 else (m, n)
        return CycleProductReport(n, m, "disjoint-cycles", 2 * odd, even // 2, 2 * odd, num_edges)
    triangles = n == m == 3
    return CycleProductReport(n, m, "connected-form", 3 if triangles else 4, 1, size, num_edges)


def cn_cn_isomorphism(n: int) -> tuple[int, ...]:
    """Flat-index bijection mapping C_n box C_n onto C_n x C_n for odd n:
    (i, j) goes to (j - i, -i - j) mod n. A step in i or in j moves both
    image coordinates by one, and the map is invertible because its
    determinant, 2, is a unit mod odd n."""
    if n < 3 or n % 2 == 0:
        raise PreconditionError("defined for odd n >= 3 only")
    index_map = ProductIndexMap((n, n))
    return tuple(
        index_map.flatten(((j - i) % n, (-i - j) % n)) for i in range(n) for j in range(n)
    )
