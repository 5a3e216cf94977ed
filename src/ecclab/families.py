"""Closed-form constructors for named graph families.

Every family has a deterministic, documented labeling so that known
eccentric graphs can be asserted as labeled edge-set equalities rather than
up-to-isomorphism claims. The star/path closed forms below follow from the
definitions and are confirmed by the brute-force oracle: E(S_n) = K_{n+1},
and E(P_n) joins each vertex to the path end(s) at least halfway away,
which gives the double star on the ends for even n and the pendant
triangle on the ends and the middle for odd n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import InputError
from .graphs import Graph, _graph_unchecked, check_size
from .products import _path_far_ends, cartesian_product


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"{self.family}({', '.join(map(str, self.params))})"


def path(n: int) -> Graph:
    """P_n with the natural labeling 0-1-...-(n-1)."""
    if n < 1:
        raise InputError("path needs at least one vertex")
    check_size(f"path({n})", n, n - 1)
    return _graph_unchecked(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least three vertices")
    check_size(f"cycle({n})", n, n)
    return _graph_unchecked(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """S_n on n+1 vertices: center 0 joined to leaves 1..n."""
    if n < 1:
        raise InputError("star needs at least one leaf")
    check_size(f"star({n})", n + 1, n)
    return _graph_unchecked(n + 1, [(0, i) for i in range(1, n + 1)])


def double_star(s: int, t: int) -> Graph:
    """S_{s,t}: adjacent centers 0 and 1 with s and t leaves respectively."""
    if s < 1 or t < 1:
        raise InputError("double star needs at least one leaf per center")
    check_size(f"double_star({s}, {t})", s + t + 2, s + t + 1)
    edges = [(0, 1)]
    edges += [(0, i) for i in range(2, s + 2)]
    edges += [(1, i) for i in range(s + 2, s + t + 2)]
    return _graph_unchecked(s + t + 2, edges)


def complete(n: int) -> Graph:
    if n < 1:
        raise InputError("complete graph needs at least one vertex")
    check_size(f"complete({n})", n, n * (n - 1) // 2)
    return _graph_unchecked(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(s: int, t: int) -> Graph:
    """K_{s,t} with parts 0..s-1 and s..s+t-1."""
    if s < 1 or t < 1:
        raise InputError("both parts need at least one vertex")
    check_size(f"complete_bipartite({s}, {t})", s + t, s * t)
    return _graph_unchecked(s + t, ((u, s + v) for u in range(s) for v in range(t)))


def h_graph(t: int) -> Graph:
    """Triangle 0-1-2 with t pendants on 0 (labels 3..t+2) and t on 1."""
    if t < 0:
        raise InputError("pendant count must be nonnegative")
    check_size(f"h_graph({t})", 2 * t + 3, 2 * t + 3)
    edges = [(0, 1), (1, 2), (0, 2)]
    edges += [(0, i) for i in range(3, t + 3)]
    edges += [(1, i) for i in range(t + 3, 2 * t + 3)]
    return _graph_unchecked(2 * t + 3, edges)


def grid(m: int, n: int) -> Graph:
    """P_m box P_n; vertex (i, j) has the flat index of the product's
    ``ProductIndexMap((m, n))``, i*n + j."""
    if m < 2 or n < 2:
        raise InputError("grid needs at least two vertices per side")
    check_size(f"grid({m}, {n})", m * n, m * (n - 1) + n * (m - 1))
    g, _ = cartesian_product([path(m), path(n)])
    return g


def hypercube(k: int) -> Graph:
    """P_2 box ... box P_2 in binary vertex order."""
    if k < 1:
        raise InputError("hypercube needs dimension at least 1")
    # 2^65 stands for every larger count, which would only cost memory.
    d = min(k, 65)
    check_size(f"hypercube({k})", 2**d, d * 2 ** (d - 1))
    if k == 1:
        return path(2)
    g, _ = cartesian_product([path(2)] * k)
    return g


FAMILIES = {
    "path": path,
    "cycle": cycle,
    "star": star,
    "double_star": double_star,
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "h_graph": h_graph,
    "grid": grid,
    "hypercube": hypercube,
}


def build_family(spec: FamilySpec) -> Graph:
    """The family's graph; its constructor checks the counts of what it
    builds with ``check_size`` first."""
    if spec.family not in FAMILIES:
        raise InputError(f"unknown family {spec.family!r}")
    return _build(FAMILIES[spec.family], spec)


def expected_eccentric(spec: FamilySpec) -> Graph:
    """Known eccentric graph of a family, with the family's own labeling.
    Each closed form checks its own counts with ``check_size`` first:
    E(S_n) = K_{n+1} has far more edges than S_n."""
    if spec.family not in _EXPECTED:
        raise InputError(f"no closed-form eccentric graph for family {spec.family!r}")
    return _build(_EXPECTED[spec.family], spec)


def _build(build: Callable[..., Graph], spec: FamilySpec) -> Graph:
    """``build(*spec.params)``; a parameter list the family does not take
    is an InputError."""
    try:
        return build(*spec.params)
    except TypeError as exc:
        raise InputError(f"bad parameters for {spec.family}: {spec.params}") from exc


def _expected_path_eccentric(n: int) -> Graph:
    """Each vertex joins the path end(s) eccentric to it. For even n this is
    the double star on the ends 0 and n-1, each joined to the far half of
    the interior; for odd n the ends and the middle form a triangle and
    every other vertex hangs off the end far from it; n <= 3 gives K_n."""
    if n < 2:
        raise InputError("eccentric graph needs at least two vertices")
    check_size(f"E(path({n}))", n, n - 1 + n % 2)
    return _graph_unchecked(n, _path_far_ends(n))


def _expected_cycle_eccentric(n: int) -> Graph:
    """i joins i + n//2 mod n. For even n that is its antipode, listed from
    both ends; for odd n it is one of i's two eccentric vertices, and the
    other joins i from n//2 steps back."""
    if n < 3:
        raise InputError("cycle needs at least three vertices")
    check_size(f"E(cycle({n}))", n, n if n % 2 else n // 2)
    return _graph_unchecked(n, [(i, (i + n // 2) % n) for i in range(n)])


def _expected_complete_eccentric(n: int) -> Graph:
    """E(K_n) = K_n: every other vertex is eccentric to each vertex."""
    if n < 2:
        raise InputError("eccentric graph needs at least two vertices")
    check_size(f"E(complete({n}))", n, n * (n - 1) // 2)
    return complete(n)


def _expected_bipartite_eccentric(s: int, t: int) -> Graph:
    if s < 2 or t < 2:
        raise InputError("closed form requires both parts of size at least 2")
    check_size(f"E(complete_bipartite({s}, {t}))", s + t, s * (s - 1) // 2 + t * (t - 1) // 2)
    edges = [(u, v) for u in range(s) for v in range(u + 1, s)]
    edges += [(s + u, s + v) for u in range(t) for v in range(u + 1, t)]
    return _graph_unchecked(s + t, edges)


def _expected_star_eccentric(n: int) -> Graph:
    """E(S_n) = K_{n+1}: every leaf is eccentric to every other vertex."""
    if n < 1:
        raise InputError("star needs at least one leaf")
    check_size(f"E(star({n}))", n + 1, (n + 1) * n // 2)
    return complete(n + 1)


_EXPECTED = {
    "path": _expected_path_eccentric,
    "cycle": _expected_cycle_eccentric,
    "complete": _expected_complete_eccentric,
    "complete_bipartite": _expected_bipartite_eccentric,
    "star": _expected_star_eccentric,
}
