"""Trees: generation, enumeration, stems, diametrical paths, decomposition.

Labeled trees are generated and enumerated through Prüfer sequences. The
structure theorem says that the eccentric graph of a tree is the union of
the eccentric graphs of the subtrees induced by its diametrical paths. Its
check takes each subtree as a vertex mask built from stems; ``decompose``
gives the same subtrees as relabelled trees of their own.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .eccentric import eccentric_adjacency
from .errors import InputError, NoStemError, UnsupportedSizeError
from .graphs import Graph, bfs_distances, check_size, is_connected, members

ENUMERATION_MAX_VERTICES = 8


@dataclass(frozen=True)
class Tree:
    """A connected acyclic graph on at least two vertices; validated on
    construction. The tree theorems need an eccentric graph, which one
    vertex does not have."""

    graph: Graph

    def __post_init__(self) -> None:
        g = self.graph
        if g.num_vertices < 2:
            raise InputError("a tree needs at least two vertices")
        if g.num_edges != g.num_vertices - 1 or not is_connected(g):
            raise InputError("not a tree (needs n-1 edges and connectivity)")

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices


def _tree_unchecked(num_vertices: int, edges) -> Tree:
    """A tree from normalized, distinct edges, as Prüfer decoding gives."""
    t = object.__new__(Tree)
    object.__setattr__(t, "graph", Graph(num_vertices, tuple(sorted(edges))))
    return t


@dataclass(frozen=True)
class DiametricalPath:
    """Vertex sequence of a diameter-realizing path, stored with v0 < vL."""

    vertices: tuple[int, ...]

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]


@dataclass(frozen=True)
class InducedSubtree:
    """Subtree induced by a diametrical path, in original and compact labels.

    ``vertices[i]`` is the original label of compact vertex ``i`` of ``tree``.
    """

    vertices: tuple[int, ...]
    tree: Tree


@dataclass(frozen=True)
class TreeDecomposition:
    paths: tuple[DiametricalPath, ...]
    induced_subtrees: tuple[InducedSubtree, ...]


def prufer_decode(sequence: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edge list of the labeled tree encoded by a Prüfer sequence."""
    degree = [1] * n
    for x in sequence:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x) if leaf < x else (x, leaf))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return edges


def random_tree(n: int, seed: int) -> Tree:
    """Uniformly random labeled tree; identical (n, seed) gives identical trees."""
    if n < 2:
        raise InputError("random trees need at least two vertices")
    check_size(f"random-tree({n}, seed={seed})", n, n - 1)
    rng = random.Random(seed)
    sequence = tuple(rng.randrange(n) for _ in range(n - 2))
    return _tree_unchecked(n, prufer_decode(sequence, n))


def _prufer_trees(n: int, prefix: tuple[int, ...]) -> Iterator[Tree]:
    """Labeled trees on n vertices whose Prüfer sequences start with prefix."""
    for tail in itertools.product(range(n), repeat=n - 2 - len(prefix)):
        yield _tree_unchecked(n, prufer_decode(prefix + tail, n))


def enumerate_trees(n: int) -> Iterator[Tree]:
    """All n^(n-2) labeled trees on n vertices, one per Prüfer sequence."""
    if not 2 <= n <= ENUMERATION_MAX_VERTICES:
        raise UnsupportedSizeError(
            f"exhaustive enumeration supports 2..{ENUMERATION_MAX_VERTICES} vertices"
        )
    yield from _prufer_trees(n, ())


def stem_at(t: Tree, leaf: int) -> tuple[int, ...]:
    """Path from a leaf to the nearest vertex of degree greater than two."""
    g = t.graph
    if g.degree(leaf) != 1:
        raise InputError(f"vertex {leaf} is not a leaf")
    path = [leaf]
    prev = -1
    current = leaf
    while g.degree(current) <= 2:
        step = [w for w in g.adjacency[current] if w != prev]
        if not step:
            raise NoStemError("path graphs have no stems")
        prev = current
        current = step[0]
        path.append(current)
    return tuple(path)


def _path_from_source(
    adjacency: tuple[tuple[int, ...], ...], row: Sequence[int], v: int
) -> tuple[int, ...]:
    """The path from the source of the BFS row ``row`` to v in a tree, read
    off the row: from v, step to the one neighbour closer to the source."""
    path = [v]
    d = row[v]
    while d:
        d -= 1
        v = next(w for w in adjacency[v] if row[w] == d)
        path.append(v)
    path.reverse()
    return tuple(path)


def _double_sweep(t: Tree) -> tuple[int, list[int], int, list[int], int]:
    """``(a, row_a, b, row_b, d)``: BFS from vertex 0 finds a vertex a of
    largest distance, which in a tree is an end of a diametrical path; BFS
    from a gives the diameter d and a vertex b at distance d; ``row_a`` and
    ``row_b`` are the BFS rows of a and b."""
    adjacency = t.graph.adjacency
    row = bfs_distances(adjacency, 0)
    a = row.index(max(row))
    row_a = bfs_distances(adjacency, a)
    d = max(row_a)
    b = row_a.index(d)
    return a, row_a, b, bfs_distances(adjacency, b), d


def _diametral_pairs(t: Tree) -> tuple[list[int], list[tuple[int, int, list[int]]]]:
    """The ends of the diametrical paths, ascending, and one ``(u, v, row)``
    per unordered pair of ends at distance d, u < v, in ascending order of
    u, then v, where ``row`` is u's BFS row.

    Built from BFS distances, like ``predicted_tree_girth``: the
    construction side of the tree theorems stays off the kernel that
    computes the eccentric graphs it is checked against. After the double
    sweep, the ends of diametrical paths are the vertices at distance d
    from a or from b, and each of them needs one BFS row."""
    a, row_a, b, row_b, d = _double_sweep(t)
    adjacency = t.graph.adjacency
    ends = [v for v in range(t.num_vertices) if row_a[v] == d or row_b[v] == d]
    rows = {a: row_a, b: row_b}
    pairs = []
    for i, u in enumerate(ends[:-1]):
        row = rows.get(u) or bfs_distances(adjacency, u)
        pairs.extend((u, v, row) for v in ends[i + 1:] if row[v] == d)
    return ends, pairs


def diametrical_paths(t: Tree) -> list[DiametricalPath]:
    """All diameter-realizing paths, one per unordered endpoint pair (u, v),
    u < v, in ascending order of u, then v."""
    adjacency = t.graph.adjacency
    return [
        DiametricalPath(_path_from_source(adjacency, row, v))
        for _, v, row in _diametral_pairs(t)[1]
    ]


def induced_subtree(t: Tree, p: DiametricalPath) -> InducedSubtree:
    """Remove stems at leaves (other than p's endpoints) that end some other
    diametrical path; the stem's terminal branching vertex survives."""
    all_paths = diametrical_paths(t)
    if p not in all_paths:
        raise InputError("path is not a diametrical path of the tree")
    return _induced_subtree(t, p, all_paths)


def _induced_subtree(
    t: Tree, p: DiametricalPath, all_paths: Sequence[DiametricalPath]
) -> InducedSubtree:
    """induced_subtree for a p known to be one of all_paths, the tree's
    diametrical paths."""
    keep = set(p.endpoints)
    other_endpoints = set()
    for q in all_paths:
        if q != p:
            other_endpoints.update(q.endpoints)
    removed: set[int] = set()
    for z in sorted(other_endpoints - keep):
        removed.update(stem_at(t, z)[:-1])
    vertices = tuple(v for v in range(t.num_vertices) if v not in removed)
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v])
        for u, v in t.graph.edges
        if u not in removed and v not in removed
    ]
    return InducedSubtree(vertices=vertices, tree=_tree_unchecked(len(vertices), edges))


def decompose(t: Tree) -> TreeDecomposition:
    paths = tuple(diametrical_paths(t))
    return TreeDecomposition(
        paths=paths,
        induced_subtrees=tuple(_induced_subtree(t, p, paths) for p in paths),
    )


def check_structure_theorem(t: Tree) -> tuple[bool, Optional[tuple[int, int]]]:
    """Union of the eccentric graphs of the subtrees that the diametrical
    paths induce versus the tree's eccentric graph, compared as neighbour
    bitsets in the tree's labels. Returns the equality flag and, on a
    mismatch, the least mismatching edge (u, v) with u < v.

    Each subtree is a vertex mask on the tree: the subtree of the path
    between the ends u and v drops the stems of every other end, so it
    keeps ``core | stem[u] | stem[v]``, where ``core`` is what no end's
    stem covers (stems of distinct leaves are disjoint unless the tree is
    a path). The kernel runs once per diametral pair on that mask. With a
    single pair there is no other end, the subtree is the tree, and the
    check holds without running the kernel."""
    ends, pairs = _diametral_pairs(t)
    if len(pairs) == 1:
        return True, None
    n = t.num_vertices
    stem = {z: sum(1 << v for v in stem_at(t, z)[:-1]) for z in ends}
    core = ((1 << n) - 1) ^ sum(stem.values())
    g = t.graph
    _, expected = eccentric_adjacency(g)
    union = [0] * n
    for u, v, _ in pairs:
        _, nbrs = eccentric_adjacency(g, core | stem[u] | stem[v])
        union = [x | y for x, y in zip(union, nbrs)]
    if union == expected:
        return True, None
    return False, min(
        (u, v) if u < v else (v, u)
        for u in range(n)
        for v in members(union[u] ^ expected[u])
    )


def predicted_tree_girth(t: Tree) -> int:
    """Eccentric girth of a tree predicted from its diameter parity and the
    number of diametrical paths: 3 if the diameter is even, 0 if odd with a
    unique diametrical path, 4 otherwise.

    The double sweep gives the diameter d from BFS on purpose: this is the
    prediction side of the tree-girth suite, kept independent of the
    ``eccentric_sets`` kernel that computes the eccentric graph it is
    checked against. When d is odd, the path ends split into those at
    distance d from b and those at distance d from a, and every pair across
    the split is diametral; so the path is unique iff each side has one
    vertex."""
    _, row_a, _, row_b, d = _double_sweep(t)
    if d % 2 == 0:
        return 3
    return 0 if row_a.count(d) == row_b.count(d) == 1 else 4


def check_monotone_exclusion(t: Tree) -> bool:
    """No 2-path v1-v2-v3 in E(T) has strictly increasing tree eccentricities."""
    ecc, nbrs = eccentric_adjacency(t.graph)
    for v2, mask in enumerate(nbrs):
        values = [ecc[w] for w in members(mask)]
        if len(values) > 1 and min(values) < ecc[v2] < max(values):
            return False
    return True


def is_star(t: Tree) -> bool:
    """Star on n vertices (center adjacent to all others); includes P2 and P3."""
    return max(t.graph.degree(v) for v in range(t.num_vertices)) == t.num_vertices - 1


def is_p2(t: Tree) -> bool:
    return t.num_vertices == 2


def is_p4(t: Tree) -> bool:
    return t.num_vertices == 4 and sorted(t.graph.degree(v) for v in range(4)) == [1, 1, 2, 2]
