"""Core graph representation: eccentricities, distances, girth, components,
relabeling.

Vertices are contiguous 0-based integers. Graphs are immutable value types;
all derived data is computed on demand. A set of vertices is a Python int
used as a bitset: bit v stands for vertex v.

Eccentricities and eccentric sets come from one kernel, ``eccentric_sets``,
which grows every vertex's ball over bitsets instead of tabulating all n²
distances (the bit-parallel BFS idea of Akiba, Iwata and Yoshida, SIGMOD
2013). When no ball is full at radius 16, it first doubles the radius in
rounds of sphere joins, B_{2k}(v) from the balls B_k(w) of the vertices w
on v's sphere of radius k, while a round costs no more ORs than the k
single steps it replaces and no doubled ball is full: three rounds carry
P_300's balls from radius 16 to 128 in place of 112 steps. When a doubled
ball would be full, each vertex finishes alone by a greedy descent over
one table of balls B_s at s = 1, 2, 4, ..., k, which the single steps
keep up to radius 16 and the doubling extends, jumping from B_r(v) to
B_{r+s}(v) by the balls B_s(w) of its sphere of radius r, exact as a
doubling, while the ball stays short of full, if the single steps left
would cost more (``_DESCENT_COST``): the ends of P_300, 170 steps past
radius 128, take 9 attempts. The kernel also runs on
the subgraph that a vertex bitset induces, on the parent graph's own
adjacency and in its labels, so a subtree needs no relabelled copy of
itself. ``all_pairs_distances`` keeps the per-source
BFS table for the few callers that need distances themselves, and serves as
the tests' oracle; ``bfs_distances`` gives one row of it. Girth has one
algorithm, ``bitset_girth``: a layered BFS over neighbour bitsets, which
``girth`` runs on a ``Graph`` and the eccentric-graph code runs on E(G)'s
bitsets directly. Components have one flood fill over neighbour bitsets,
``_component_masks``, behind ``connected_components``, ``is_connected``,
girth's forest test and ``eccentric.eccentricity_determinant``'s blocks; it
also gives each component's even-layer mask, the two sides of a bipartite
one.

The size policy lives here too, one check per kind of cap: every
constructor of a graph from counts, a family, a random tree, a product or
an eccentric graph, passes its own exact counts to ``check_size`` before
any edge of it exists, on library calls as on the CLI's, and every graph
whose eccentricity matrix the CLI or the invertibility checks read passes
``check_matrix_side``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import DisconnectedGraphError, InputError, SizeCapError

# The vertex cap of a built graph.
DEFAULT_SIZE_CAP = 20_000

# A built graph's edge cap: K_707's 249,571 edges take about a second to
# build and write as JSON on a 2-vCPU VM.
EDGE_CAP = 250_000

# The side cap of an eccentricity matrix, that is, its graph's vertex count.
MATRIX_SIDE_CAP = 4096


def _count_text(count: int) -> str:
    return str(count) if count.bit_length() <= 64 else "more than 2^64"


def check_size(name: str, vertices: int, edges: int) -> None:
    """Raise SizeCapError for a graph of more than DEFAULT_SIZE_CAP
    vertices or EDGE_CAP edges, before any edge is built."""
    if vertices > DEFAULT_SIZE_CAP:
        raise SizeCapError(
            f"{name} on {_count_text(vertices)} vertices exceeds the cap of {DEFAULT_SIZE_CAP}"
        )
    if edges > EDGE_CAP:
        raise SizeCapError(f"{name} with {_count_text(edges)} edges exceeds the cap of {EDGE_CAP}")


def check_matrix_side(side: int) -> None:
    """Raise SizeCapError for a graph of more than MATRIX_SIDE_CAP vertices,
    the side of its eccentricity matrix."""
    if side > MATRIX_SIDE_CAP:
        raise SizeCapError(f"{side} vertices exceed the cap of {MATRIX_SIDE_CAP}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..num_vertices-1``.

    ``edges`` is normalized: each pair satisfies ``u < v``, the tuple is
    sorted and duplicate-free, so dataclass equality is labeled-graph
    equality.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbours, ascending with no sort: ``edges`` is sorted, so every
        pair (u, x) with u < x comes before every pair (x, v)."""
        nbrs: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @cached_property
    def neighbour_bitsets(self) -> tuple[int, ...]:
        """Bit w of entry v is set iff v and w are adjacent."""
        nbrs = [0] * self.num_vertices
        for u, v in self.edges:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
        return tuple(nbrs)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.neighbour_bitsets[u] >> v & 1)


def _graph_from_bitsets(nbrs: Sequence[int]) -> Graph:
    """The graph in which vertex u has the neighbour bitset ``nbrs[u]``: the
    inverse of ``Graph.neighbour_bitsets``. Each edge is read from the row
    of its lower end, so the edges come out sorted and distinct."""
    edges = []
    for u, mask in enumerate(nbrs):
        after = u + 1
        edges.extend((u, after + i) for i in members(mask >> after))
    return Graph(len(nbrs), tuple(edges))


@dataclass(frozen=True)
class DistanceData:
    """All-pairs hop counts with per-vertex eccentricities."""

    dist: tuple[tuple[int, ...], ...]
    ecc: tuple[int, ...]
    diameter: int


def _normalize_edges(edge_list: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(u, v) if u < v else (v, u) for u, v in edge_list}))


def _graph_unchecked(num_vertices: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Construct without endpoint validation (internal fast path)."""
    return Graph(num_vertices, _normalize_edges(edge_list))


def build_graph(num_vertices: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, deduplicating and normalizing the edge list."""
    if num_vertices < 1:
        raise InputError(f"need at least one vertex, got {num_vertices}")
    edge_list = tuple(edge_list)  # a one-shot iterable is read twice below
    for u, v in edge_list:
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise InputError(f"edge ({u},{v}) out of range for {num_vertices} vertices")
    return _graph_unchecked(num_vertices, edge_list)


def bfs_distances(adjacency: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    """Hop counts from ``source``; -1 marks unreachable vertices."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    # A list read in order while it grows is the queue: nothing is popped.
    queue = [source]
    push = queue.append
    for u in queue:
        du = dist[u] + 1
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = du
                push(w)
    return dist


def is_connected(g: Graph) -> bool:
    return len(_component_masks(g.neighbour_bitsets)) == 1


def all_pairs_distances(g: Graph) -> DistanceData:
    """BFS from every vertex. Raises on disconnected input."""
    adjacency = g.adjacency
    rows = []
    for v in range(g.num_vertices):
        row = bfs_distances(adjacency, v)
        if -1 in row:
            raise DisconnectedGraphError("all_pairs_distances requires a connected graph")
        rows.append(tuple(row))
    ecc = tuple(max(row) for row in rows) if g.num_vertices else ()
    return DistanceData(
        dist=tuple(rows),
        ecc=ecc,
        diameter=max(ecc),
    )


# The radius after which ``eccentric_sets`` may double its balls. Doubling
# from radius 4 made the kernel take 1.2-1.5x as long on 300 random trees of
# 9-40 vertices (2-vCPU VM, Python 3.11).
_DOUBLING_RADIUS = 16

# What the descent of ``_descend`` costs, in single-step ORs per vertex of
# the spheres it starts from: log2(k)+1 attempts per vertex with a sphere's
# member list made at each accepted jump. On 38 paths, cycles, ladders,
# grids, caterpillars, spiders, brooms, lollipops and trees of 34-600
# vertices, the kernel alone ran slower with the descent than with single
# steps where the single steps left came to 26.5 such ORs or fewer, and
# faster from 27.2 on (2-vCPU VM, Python 3.11). That was measured while the
# descent rebuilt the balls below radius 16 by 8 more single steps; it now
# reads the ones the single steps kept, so 32 leans toward single steps.
_DESCENT_COST = 32


def eccentric_sets(
    g: Graph, keep: Optional[int] = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Eccentricities and eccentric sets of a connected graph, or of the
    subgraph that the vertex bitset ``keep`` induces in it.

    ``full`` is ``keep``, or every vertex when ``keep`` is None. Every ball
    grows at once on g's adjacency, ``B_k(v) = B_{k-1}(v) | OR_{w~v}
    B_{k-1}(w)`` from ``B_0(v) = full & {v}``, so a vertex outside ``full``
    starts, and stays, with an empty ball and no ball grows through it.
    ``ecc[v]`` is the first k at which ``B_k(v)`` is ``full``, and
    ``far[v] = full ^ B_{e(v)-1}(v)`` is the bitset of the vertices eccentric
    to v (at distance e(v) from it). The answer is in g's labels: a vertex
    outside ``full`` gets ``ecc`` 0 and ``far`` 0. On one vertex ``ecc`` is 0
    and the vertex is eccentric to itself. A ball that stops growing before
    it is full raises ``DisconnectedGraphError``.

    While no ball is full, the single steps keep the pairs ``(B_{s-1},
    B_s)`` at s = 1, 2, 4, 8 and 16 in one table, which the doubling extends
    and the descent reads; it is dropped at the first full ball, or when
    the doubling hands back to single steps.

    If no ball is full at radius ``_DOUBLING_RADIUS`` (16), the radius
    first doubles in rounds, ``B_{2k}(v)`` joining the balls ``B_k(w)`` of
    the vertices w on v's sphere of radius k (see ``_doubled_balls``), while
    a round costs no more ORs than the k single steps it replaces. When a
    doubled ball would be full, the round is dropped. If the single steps
    left, estimated from the vertices the balls miss over those on their
    spheres, would cost at least ``_DESCENT_COST`` ORs per sphere vertex,
    every vertex finishes alone by a greedy descent (see ``_descend``): from
    ``B_r(v)``, a jump of s = k, k/2, ..., 1 joins the balls ``B_s(w)`` of
    v's sphere of radius r, exact by the doubling's argument, and is kept
    only if it leaves the ball short of full, so r ends at e(v) - 1.
    Otherwise, and when doubling stops for its cost, single steps go on
    from the last radius.
    """
    adjacency = g.adjacency
    n = g.num_vertices
    full = (1 << n) - 1 if keep is None else keep
    if full <= 0 or full >> n:
        raise InputError("keep must be a non-empty bitset of the graph's vertices")
    ball = [full & 1 << v for v in range(n)]
    far = [full if b else 0 for b in ball]
    pending = [v for v in range(n) if 0 < ball[v] != full]
    ecc = [0] * n
    levels = []  # (B_{s-1}, B_s) at s = 1, 2, 4, 8, 16 while no ball is full
    k = 0
    while pending:
        k += 1
        grown = ball[:]
        still = []
        for v in pending:
            b = old = ball[v]
            for w in adjacency[v]:
                b |= ball[w]
            if b == full:
                ecc[v] = k
                far[v] = full ^ old
            elif b == old:
                raise DisconnectedGraphError("eccentric_sets requires a connected graph")
            else:
                still.append(v)
            grown[v] = b
        if k & (k - 1) == 0 and k <= _DOUBLING_RADIUS and len(still) == full.bit_count():
            levels.append((ball, grown))
            if k == _DOUBLING_RADIUS:
                k, grown, still = _doubled_balls(g, full, still, levels, ecc, far)
                levels = []
        elif len(still) < len(pending):
            levels = []
        ball = grown
        pending = still
    return tuple(ecc), tuple(far)


def _doubled_balls(
    g: Graph,
    full: int,
    pending: list[int],
    levels: list[tuple[list[int], list[int]]],
    ecc: list[int],
    far: list[int],
) -> tuple[int, list[int], list[int]]:
    """Radius k = ``_DOUBLING_RADIUS`` doubled while it pays: from the last
    pair of the table ``levels``, (B_{k-1}, B_k) with no ball full, each
    round takes every vertex's sphere ``S_k(v) = B_k(v) ^ B_{k-1}(v)`` and
    sets ``B_{2k}(v) = B_k(v) | OR_{w in S_k(v)} B_k(w)``, and
    ``B_{2k-1}(v)`` likewise from the ``B_{k-1}(w)``, and appends that pair
    to ``levels``. That is exact: on a shortest path from v to a vertex u
    with k < d(v, u) <= 2k, the vertex at distance k from v is in ``S_k(v)``
    and within k of u. Returns the last radius, its balls and the vertices
    still pending there.

    Doubling stops when a round would cost more ORs, 2 per sphere vertex,
    than the k single steps it replaces, deg(v) per vertex each; the single
    steps then go on. It also stops when a doubled ball would be full, which
    drops the round. The pending balls then lack ``missing`` vertices and
    their spheres hold ``sphere_sum``; were the spheres to keep their size,
    single steps would take about missing / sphere_sum more steps per
    vertex, at ``step_cost`` ORs a step. If that comes to at least
    ``_DESCENT_COST`` ORs per sphere vertex, ``_descend`` finishes every
    vertex into ``ecc`` and ``far`` and no vertex is left pending; else the
    single steps go on. A ball short of full that does not grow has run out
    of its component, so ``DisconnectedGraphError`` is raised.
    """
    adjacency = g.adjacency
    step_cost = sum(len(adjacency[v]) for v in pending)
    k = _DOUBLING_RADIUS
    inner, ball = levels[-1]
    while True:
        spheres = [ball[v] ^ inner[v] for v in pending]
        sphere_sum = sum(map(int.bit_count, spheres))
        if 2 * sphere_sum > k * step_cost:
            return k, ball, pending
        sizes = [ball[v].bit_count() for v in pending]
        doubled = ball[:]
        doubled_inner = ball[:]
        # Largest balls first: they are the likeliest to fill, so a round
        # that is dropped stops early.
        for i in sorted(range(len(pending)), key=sizes.__getitem__, reverse=True):
            v = pending[i]
            b = b_inner = old = ball[v]
            for w in members(spheres[i]):
                b |= ball[w]
                b_inner |= inner[w]
            if b == full:
                missing = len(pending) * full.bit_count() - sum(sizes)
                if step_cost * missing < _DESCENT_COST * sphere_sum**2:
                    return k, ball, pending
                _descend(full, pending, levels, ecc, far)
                return k, ball, []
            if b == old:
                raise DisconnectedGraphError("eccentric_sets requires a connected graph")
            doubled[v] = b
            doubled_inner[v] = b_inner
        k *= 2
        inner, ball = doubled_inner, doubled
        levels.append((inner, ball))


def _descend(
    full: int,
    pending: list[int],
    levels: list[tuple[list[int], list[int]]],
    ecc: list[int],
    far: list[int],
) -> None:
    """Every pending vertex's ``ecc`` and ``far`` by a greedy descent over
    the table ``levels`` of balls ``(B_{s-1}, B_s)`` at s = 1, 2, 4, ..., k:
    those the single steps of ``eccentric_sets`` kept up to
    ``_DOUBLING_RADIUS``, then the doubled ones up to the last radius k, at
    which no ball is full.

    From ``(B_{r-1}(v), B_r(v))`` a jump of s gives ``B_{r+s}(v) = B_r(v) |
    OR_{w in S_r(v)} B_s(w)`` and ``B_{r+s-1}(v)`` likewise from the
    ``B_{s-1}(w)``, exact as in ``_doubled_balls``. Each vertex starts at
    r = k and tries the jumps from the largest down, the largest again while
    it leaves the ball short of full, and keeps a jump only if it does: a
    greedy sum of powers of two, so it ends at r = e(v) - 1, where
    ``ecc[v] = r + 1`` and ``far[v] = full ^ B_r(v)``. A sphere's member
    list serves every attempt from its radius. A jump that adds nothing to
    a ball short of full raises ``DisconnectedGraphError``, as a single step
    does; the descent starts only once a ball has been seen to fill, so on
    exact balls no jump stalls, and the check stops a wrong one from
    repeating the largest jump forever.
    """
    inner, ball = levels[-1]
    top = len(levels) - 1
    for v in pending:
        r = 1 << top
        b = ball[v]
        sphere = members(b ^ inner[v])
        j = top
        while j >= 0:
            low, high = levels[j]
            jumped = b
            for w in sphere:
                jumped |= high[w]
            if jumped == full:
                j -= 1
                continue
            if jumped == b:
                raise DisconnectedGraphError("eccentric_sets requires a connected graph")
            for w in sphere:
                b |= low[w]
            sphere = members(jumped ^ b)
            b = jumped
            r += 1 << j
            if j < top:
                j -= 1
        ecc[v] = r + 1
        far[v] = full ^ b


def members(mask: int) -> list[int]:
    """The vertices of a bitset, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def girth(g: Graph) -> int:
    """Length of the shortest cycle; 0 if acyclic. The input may be
    disconnected."""
    return bitset_girth(g.neighbour_bitsets)


def bitset_girth(nbrs: Sequence[int]) -> int:
    """Girth of the graph in which vertex u has the neighbour bitset
    ``nbrs[u]``; 0 if it is a forest.

    A forest (|E| = |V| - #components) is answered without a search.
    Otherwise a layered BFS runs from each root in turn: an edge inside
    layer k closes a cycle of length at most 2k+1, and a vertex of layer
    k+1 with two parents in layer k one of length at most 2k+2. Each root
    is dropped from the later searches; that stays exact, as the first
    root searched on a shortest cycle still sees the whole cycle, which is
    then found at its length.
    """
    n = len(nbrs)
    if sum(mask.bit_count() for mask in nbrs) // 2 == n - len(_component_masks(nbrs)):
        return 0
    alive = (1 << n) - 1
    best = 0  # 0 encodes "no cycle found yet"
    for root in range(n):
        visited = frontier = 1 << root
        depth = 0  # frontier is layer ``depth``
        while frontier and (not best or 2 * depth + 1 < best):
            rest = alive ^ visited
            odd = False
            once = twice = 0
            for v in members(frontier):
                mask = nbrs[v]
                if mask & frontier:
                    odd = True
                    break
                mask &= rest
                twice |= once & mask
                once |= mask
            if odd:
                best = 2 * depth + 1
                break
            if twice:
                best = 2 * depth + 2
                break
            visited |= once
            frontier = once
            depth += 1
        if best == 3:
            break
        alive ^= 1 << root
    return best


def _component_masks(nbrs: Sequence[int]) -> list[tuple[int, int]]:
    """Components of the graph in which vertex u has the neighbour bitset
    ``nbrs[u]``, in order of their least vertex: a flood fill from the least
    unseen vertex, one BFS layer per step. Each component comes as a pair of
    bitsets ``(component, even)``, ``even`` the union of the layers at even
    depth. The component is bipartite exactly when no edge joins two
    vertices of ``even`` or two of ``component ^ even``; those are then its
    two sides."""
    components = []
    unseen = (1 << len(nbrs)) - 1
    while unseen:
        reached = frontier = unseen & -unseen
        sides = [frontier, 0]
        depth = 0
        while frontier:
            grown = 0
            for v in members(frontier):
                grown |= nbrs[v]
            frontier = grown & ~reached
            reached |= frontier
            depth ^= 1
            sides[depth] |= frontier
        unseen ^= reached
        components.append((reached, sides[0]))
    return components


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted ascending."""
    return [tuple(members(mask)) for mask, _ in _component_masks(g.neighbour_bitsets)]


def apply_vertex_map(g: Graph, mapping: Iterable[int]) -> Graph:
    """Relabel ``g`` by a permutation of ``0..n-1``."""
    perm = tuple(mapping)
    if sorted(perm) != list(range(g.num_vertices)):
        raise InputError("mapping is not a permutation of the vertex set")
    return _graph_unchecked(g.num_vertices, ((perm[u], perm[v]) for u, v in g.edges))
