from fractions import Fraction

import pytest

from ecclab.graphs import build_graph
from ecclab.trees import Tree

# 12-vertex reference tree: a 0-6 spine with a branch 7-{8,11} hanging off
# vertex 2 and a branch 9-10 hanging off vertex 3. Diameter 6, three
# diametrical paths, a known decomposition, and a known eccentric graph.
REFERENCE_TREE_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
    (2, 7), (7, 8), (7, 11), (3, 9), (9, 10),
)

# Frozen by hand from the distance table: d(u,v) = min(e(u), e(v)).
REFERENCE_ECCENTRIC_EDGES = frozenset(
    [(0, 6), (1, 6), (2, 6), (3, 6), (6, 7), (6, 8), (6, 9), (6, 10), (6, 11)]
    + [(0, 3), (3, 8), (3, 11)]
    + [(0, 4), (4, 8), (4, 11)]
    + [(0, 5), (5, 8), (5, 11)]
    + [(0, 9), (8, 9), (9, 11)]
    + [(0, 10), (8, 10), (10, 11)]
)


@pytest.fixture
def reference_tree() -> Tree:
    return Tree(build_graph(12, REFERENCE_TREE_EDGES))


def spider(legs: int, length: int):
    """``legs`` paths of ``length`` vertices each, joined at a centre,
    vertex 0: its radius is ``length``, from the centre."""
    edges = []
    for leg in range(legs):
        start = 1 + leg * length
        edges.append((0, start))
        edges += [(v, v + 1) for v in range(start, start + length - 1)]
    return build_graph(1 + legs * length, edges)


def brute_force_girth(g) -> int:
    """Girth oracle: for each edge uv, the shortest u-v path that avoids
    that edge, plus 1; 0 when no edge lies on a cycle. Reads only
    ``g.edges`` and ``g.adjacency``, none of the library's searches."""
    best = 0
    for u, v in g.edges:
        dist = {u: 0}
        queue = [u]
        for x in queue:
            for w in g.adjacency[x]:
                if w not in dist and {x, w} != {u, v}:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if v in dist and (best == 0 or dist[v] + 1 < best):
            best = dist[v] + 1
    return best


def fraction_determinant(rows) -> int:
    """Determinant oracle for matrices beyond Leibniz's 9x9: Gaussian
    elimination over ``fractions.Fraction``, with no Bareiss step in it."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            if factor:
                for j in range(k + 1, n):
                    a[i][j] -= factor * a[k][j]
    assert det.denominator == 1
    return int(det)
