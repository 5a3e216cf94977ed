import functools
import math
import random

import pytest

from conftest import brute_force_girth, spider
from ecclab import graphs
from ecclab.eccentric import eccentric_graph
from ecclab.errors import DisconnectedGraphError, InputError
from ecclab.families import complete, cycle, hypercube, path
from ecclab.graphs import (
    Graph,
    all_pairs_distances,
    apply_vertex_map,
    bfs_distances,
    build_graph,
    connected_components,
    eccentric_sets,
    girth,
    is_connected,
    members,
)
from ecclab.products import cartesian_product
from ecclab.trees import random_tree


def bfs_eccentric_sets(g):
    """Eccentricities and eccentric-set bitsets read off the BFS table."""
    dd = all_pairs_distances(g)
    far = tuple(
        sum(1 << u for u, d in enumerate(row) if d == e)
        for row, e in zip(dd.dist, dd.ecc)
    )
    return dd.ecc, far


def test_build_graph_normalizes_and_deduplicates():
    g = build_graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    assert not g.has_edge(1, 1)


def test_build_graph_rejects_self_loops_and_out_of_range():
    with pytest.raises(InputError):
        build_graph(3, [(1, 1)])
    with pytest.raises(InputError):
        build_graph(3, [(0, 3)])
    with pytest.raises(InputError):
        build_graph(0, [])


def test_build_graph_reads_a_generator_like_a_list():
    edges = [(0, 1), (2, 1), (1, 0)]
    assert build_graph(3, (e for e in edges)) == build_graph(3, edges)
    assert build_graph(3, (e for e in edges)).edges == ((0, 1), (1, 2))
    # The first bad edge of the input is reported as the input wrote it.
    for bad, message in (
        ([(0, 1), (2, 2)], r"self-loop at vertex 2"),
        ([(0, 1), (3, 1), (0, 5)], r"edge \(3,1\) out of range for 3 vertices"),
        ([(-1, 1)], r"edge \(-1,1\) out of range"),
    ):
        with pytest.raises(InputError, match=message):
            build_graph(3, (e for e in bad))


def test_bfs_distances_marks_unreachable():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert bfs_distances(g.adjacency, 0) == [0, 1, -1, -1]
    assert not is_connected(g)
    assert connected_components(g) == [(0, 1), (2, 3)]


def test_all_pairs_on_p4():
    dd = all_pairs_distances(path(4))
    assert dd.ecc == (3, 2, 2, 3)
    assert dd.diameter == 3
    assert dd.dist[0] == (0, 1, 2, 3)


def test_all_pairs_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        all_pairs_distances(build_graph(3, [(0, 1)]))


def test_eccentric_sets_on_p4():
    ecc, far = eccentric_sets(path(4))
    assert ecc == (3, 2, 2, 3)
    assert [members(m) for m in far] == [[3], [3], [0], [0]]


def test_eccentric_sets_edge_cases():
    # One vertex: e = 0, and the vertex is at distance e from itself.
    assert eccentric_sets(build_graph(1, [])) == ((0,), (0b1,))
    assert eccentric_sets(path(2)) == ((1, 1), (0b10, 0b01))
    assert eccentric_sets(build_graph(1, [])) == bfs_eccentric_sets(build_graph(1, []))


@pytest.mark.parametrize(
    "g",
    [
        build_graph(2, []),
        build_graph(3, [(0, 1)]),
        build_graph(5, [(0, 1), (1, 2), (3, 4)]),
        # Two P_40s: no ball is full at radius 16, so the balls double.
        build_graph(80, [(i, i + 1) for i in range(79) if i != 39]),
        # Two P_300s: the balls double up to radius 256 and stop growing.
        build_graph(600, [(i, i + 1) for i in range(599) if i != 299]),
    ],
)
def test_eccentric_sets_requires_connected(g):
    with pytest.raises(DisconnectedGraphError):
        eccentric_sets(g)


def test_masked_eccentric_sets_on_p5():
    # {1, 2, 3} induces P3 inside P5; vertices 0 and 4 are left out.
    assert eccentric_sets(path(5), 0b01110) == ((0, 2, 1, 2, 0), (0, 0b1000, 0b1010, 0b10, 0))
    assert eccentric_sets(path(5), 0b00100) == ((0, 0, 0, 0, 0), (0, 0, 0b100, 0, 0))
    assert eccentric_sets(path(5), 0b11111) == eccentric_sets(path(5))


def test_masked_eccentric_sets_reject_bad_masks():
    with pytest.raises(DisconnectedGraphError):
        eccentric_sets(path(5), 0b10001)
    with pytest.raises(DisconnectedGraphError):
        eccentric_sets(path(100), ((1 << 100) - 1) ^ (1 << 50))
    with pytest.raises(DisconnectedGraphError):
        eccentric_sets(path(300), ((1 << 300) - 1) ^ (1 << 150))
    for keep in (0, -1, 1 << 5, 0b100001):
        with pytest.raises(InputError):
            eccentric_sets(path(5), keep)


@pytest.mark.parametrize(
    "factors",
    [
        [path(10)] * 3,
        [cycle(31)] * 2,
        [hypercube(5)] * 2,
        [random_tree(25, seed=3).graph, cycle(40)],
    ],
    ids=["P10^3", "C31^2", "Q5xQ5", "T25xC40"],
)
def test_eccentric_sets_match_bfs_on_products(factors):
    g, _ = cartesian_product(factors)
    assert 900 <= g.num_vertices <= 1024
    assert eccentric_sets(g) == bfs_eccentric_sets(g)


# Paths and cycles whose doubling stops at radius 16 to 256, with tails from
# 0 to 742 steps past it.
TAIL_SIZES = [*range(33, 41), *range(129, 161), *range(255, 261), 299, 300, 301, 1000]


@functools.lru_cache(maxsize=None)
def family_and_oracle(family, n):
    g = family(n)
    return g, bfs_eccentric_sets(g)


@pytest.mark.parametrize("n", TAIL_SIZES)
@pytest.mark.parametrize("family", [path, cycle])
def test_eccentric_sets_match_bfs_past_the_doubling_radius(family, n):
    g, expected = family_and_oracle(family, n)
    assert eccentric_sets(g) == expected


@pytest.mark.parametrize("n", TAIL_SIZES)
@pytest.mark.parametrize("family", [path, cycle])
def test_descent_matches_bfs_on_every_tail(family, n, monkeypatch):
    # A descent cost of 0 sends every dropped round to the descent, however
    # short the tail it replaces.
    monkeypatch.setattr(graphs, "_DESCENT_COST", 0)
    g, expected = family_and_oracle(family, n)
    assert eccentric_sets(g) == expected


def caterpillar(spine):
    """A path of ``spine`` vertices, each with one pendant leaf."""
    edges = [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)]
    return build_graph(2 * spine, edges)


DROPPED_ROUNDS = pytest.mark.parametrize(
    "g",
    [
        cartesian_product([path(3), path(40)])[0],
        cartesian_product([cycle(5), cycle(60)])[0],
        cartesian_product([path(5), path(60)])[0],
        caterpillar(60),
        caterpillar(300),
    ],
    ids=["P3xP40", "C5xC60", "P5xP60", "caterpillar60", "caterpillar300"],
)


@DROPPED_ROUNDS
def test_eccentric_sets_match_bfs_when_a_doubled_ball_would_fill(g):
    # Each radius exceeds 16 and each sphere is small, but a doubled ball
    # is full (at radius 32, or 256 on the longer caterpillar), so the
    # doubling round is dropped.
    assert eccentric_sets(g) == bfs_eccentric_sets(g)


@DROPPED_ROUNDS
def test_descent_matches_bfs_when_a_doubled_ball_would_fill(g, monkeypatch):
    monkeypatch.setattr(graphs, "_DESCENT_COST", 0)
    assert eccentric_sets(g) == bfs_eccentric_sets(g)


def test_descent_runs_only_where_the_single_steps_left_cost_more(monkeypatch):
    descended = []
    real = graphs._descend
    # The spy records ``g``, the graph of the loop below that is running.
    monkeypatch.setattr(graphs, "_descend", lambda *args: descended.append(g) or real(*args))
    # Long tails descend: the ends of P_300 are up to 170 steps past
    # radius 128, and C_1000's vertices 243 steps past radius 256.
    long_tails = [path(100), path(300), cycle(241), cycle(1000), caterpillar(300)]
    # Short tails take single steps: C_34 one, C_150 eleven, C_300 22; the
    # ladders' and trees' spheres are too large for their tails.
    short_tails = [path(34), cycle(34), cycle(150), cycle(300), caterpillar(60),
                   cartesian_product([path(5), path(60)])[0], random_tree(300, seed=300).graph]
    for g in long_tails + short_tails:
        eccentric_sets(g)
    assert descended == long_tails


@functools.lru_cache(maxsize=None)
def spider_and_oracle(legs, length):
    g = spider(legs, length)
    return g, bfs_eccentric_sets(g)


@pytest.mark.parametrize("cost", [graphs._DESCENT_COST, 0], ids=["cost", "cost0"])
@pytest.mark.parametrize("legs, length", [(20, 17), (30, 18), (40, 20)])
def test_eccentric_sets_match_bfs_when_doubling_would_cost_more(legs, length, cost, monkeypatch):
    # Every radius exceeds 16, but a leaf's sphere at radius 16 crosses the
    # centre into every other leg, so a doubling round would cost more ORs
    # than the 16 single steps it replaces: ``_doubled_balls`` stops before
    # it lists any sphere's members, and single steps finish.
    doubled, listed = [], []
    real = graphs._doubled_balls
    monkeypatch.setattr(graphs, "_DESCENT_COST", cost)
    monkeypatch.setattr(graphs, "_doubled_balls", lambda *args: doubled.append(1) or real(*args))
    monkeypatch.setattr(graphs, "members", lambda mask: listed.append(mask) or members(mask))
    g, expected = spider_and_oracle(legs, length)
    assert eccentric_sets(g) == expected
    assert doubled and not listed


class CountingAdjacency(tuple):
    """An adjacency whose reads are counted: the kernel reads a vertex's
    neighbours once per single step of that vertex."""

    reads = 0

    def __getitem__(self, v):
        CountingAdjacency.reads += 1
        return tuple.__getitem__(self, v)


@pytest.mark.parametrize("family", [path, cycle])
def test_eccentric_sets_take_no_single_step_past_radius_16_on_long_tails(family):
    # The 16 single steps and the doubling's degree sum read each vertex's
    # neighbours 17 times, and the descent reads the balls those steps
    # kept; single steps to the end would read them about e(v) times,
    # 500-999 on P_1000 and 500 on C_1000.
    g, expected = family_and_oracle(family, 1000)
    counted = family(1000)
    counted.__dict__["adjacency"] = CountingAdjacency(g.adjacency)
    CountingAdjacency.reads = 0
    assert eccentric_sets(counted) == expected
    assert CountingAdjacency.reads <= (16 + 1) * 1000


def test_eccentric_sets_doubles_only_past_radius_16(monkeypatch):
    # ``members`` is called by the kernel only in its doubling rounds.
    calls = []

    def spy(mask):
        calls.append(mask)
        return members(mask)

    monkeypatch.setattr(graphs, "members", spy)
    eccentric_sets(random_tree(40, seed=0).graph)
    assert calls == []
    eccentric_sets(path(300))
    assert calls


def test_members():
    assert members(0) == []
    assert members(0b101001) == [0, 3, 5]
    assert members(1 << 1000) == [1000]


PETERSEN = build_graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)


@pytest.mark.parametrize(
    "g,expected",
    [
        (path(6), 0),
        (cycle(5), 5),
        (cycle(8), 8),
        (complete(4), 3),
        (build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (3, 6)]), 4),
        (build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]), 3),
        (PETERSEN, 5),
        (complete(7), 3),
        (cycle(3), 3),
        (cycle(13), 13),
        (eccentric_graph(cartesian_product([path(10)] * 3)[0]), 0),  # a forest
        (build_graph(5, []), 0),
        (build_graph(1, []), 0),
    ],
)
def test_girth(g, expected):
    assert girth(g) == expected
    assert brute_force_girth(g) == expected


def _random_graph(rng: random.Random) -> Graph:
    n = rng.randint(1, 16)
    p = rng.random() * 0.5
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_girth_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for g in [PETERSEN, complete(6), cycle(9)] + [_random_graph(rng) for _ in range(400)]:
        h = nx.Graph()
        h.add_nodes_from(range(g.num_vertices))
        h.add_edges_from(g.edges)
        expected = nx.girth(h)
        assert girth(g) == (0 if expected == math.inf else expected)


def test_apply_vertex_map():
    g = path(3)
    assert apply_vertex_map(g, (2, 1, 0)).edges == ((0, 1), (1, 2))
    with pytest.raises(InputError):
        apply_vertex_map(g, (0, 0, 1))
