import pytest

from conftest import REFERENCE_ECCENTRIC_EDGES
from ecclab import eccentric, graphs, trees
from ecclab.eccentric import eccentric_adjacency, eccentric_graph
from ecclab.errors import InputError, NoStemError, UnsupportedSizeError
from ecclab.families import cycle, double_star, path, star
from ecclab.graphs import all_pairs_distances, build_graph, members
from ecclab.trees import (
    Tree,
    check_monotone_exclusion,
    check_structure_theorem,
    decompose,
    diametrical_paths,
    enumerate_trees,
    induced_subtree,
    is_p2,
    is_p4,
    is_star,
    predicted_tree_girth,
    prufer_decode,
    random_tree,
    stem_at,
)


def test_tree_validation():
    with pytest.raises(InputError):
        Tree(cycle(4))
    with pytest.raises(InputError):
        Tree(build_graph(4, [(0, 1), (2, 3)]))
    assert Tree(path(5)).num_vertices == 5


def test_one_vertex_is_not_a_tree():
    # One vertex has no eccentric graph, so no tree theorem applies to it.
    with pytest.raises(InputError):
        Tree(build_graph(1, []))


def test_prufer_decode_known():
    assert prufer_decode((), 2) == [(0, 1)]
    assert sorted(prufer_decode((0, 0), 4)) == [(0, 1), (0, 2), (0, 3)]
    assert sorted(prufer_decode((1, 2), 4)) == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125)])
def test_enumerate_trees_cayley_count(n, count):
    trees = list(enumerate_trees(n))
    assert len(trees) == count
    assert all(t.num_vertices == n for t in trees)


def test_enumerate_trees_size_limit():
    with pytest.raises(UnsupportedSizeError):
        list(enumerate_trees(9))
    with pytest.raises(UnsupportedSizeError):
        list(enumerate_trees(1))


def test_random_tree_deterministic():
    a = random_tree(12, seed=7)
    b = random_tree(12, seed=7)
    assert a.graph == b.graph
    assert random_tree(12, seed=8).graph != a.graph
    with pytest.raises(InputError):
        random_tree(1, seed=0)


def test_stems(reference_tree):
    assert stem_at(reference_tree, 8) == (8, 7)
    assert stem_at(reference_tree, 10) == (10, 9, 3)
    assert stem_at(reference_tree, 0) == (0, 1, 2)
    with pytest.raises(InputError):
        stem_at(reference_tree, 2)  # not a leaf
    with pytest.raises(NoStemError):
        stem_at(Tree(path(5)), 0)


def test_reference_tree_diametrical_paths(reference_tree):
    paths = diametrical_paths(reference_tree)
    assert sorted(p.endpoints for p in paths) == [(0, 6), (6, 8), (6, 11)]
    assert all(len(p.vertices) == 7 for p in paths)


def test_reference_tree_induced_subtrees(reference_tree):
    dec = decompose(reference_tree)
    by_endpoints = {
        p.endpoints: sub.vertices for p, sub in zip(dec.paths, dec.induced_subtrees)
    }
    assert by_endpoints[(0, 6)] == (0, 1, 2, 3, 4, 5, 6, 7, 9, 10)
    assert by_endpoints[(6, 8)] == (2, 3, 4, 5, 6, 7, 8, 9, 10)
    assert by_endpoints[(6, 11)] == (2, 3, 4, 5, 6, 7, 9, 10, 11)


def test_induced_subtree_rejects_non_diametrical_path(reference_tree):
    from ecclab.trees import DiametricalPath

    with pytest.raises(InputError):
        induced_subtree(reference_tree, DiametricalPath((0, 1, 2)))


def test_reference_tree_eccentric_graph(reference_tree):
    eg = eccentric_graph(reference_tree.graph)
    assert set(eg.edges) == set(REFERENCE_ECCENTRIC_EDGES)
    assert len(eg.edges) == 24


def test_structure_theorem_on_reference_tree(reference_tree):
    ok, witness = check_structure_theorem(reference_tree)
    assert ok and witness is None


def test_structure_witness_is_the_least_mismatching_edge(monkeypatch, reference_tree):
    # Corrupt E of the subtree induced by the path 0..6, the only mask of
    # 10 vertices: drop its edge (0, 6) and add the non-edges (5, 7) and
    # (1, 2).
    real = trees.eccentric_adjacency

    def corrupted(g, keep=None):
        ecc, nbrs = real(g, keep)
        if keep is not None and keep.bit_count() == 10:
            nbrs = list(nbrs)
            for u, v in ((0, 6), (5, 7), (1, 2)):
                nbrs[u] ^= 1 << v
                nbrs[v] ^= 1 << u
        return ecc, nbrs

    monkeypatch.setattr(trees, "eccentric_adjacency", corrupted)
    assert check_structure_theorem(reference_tree) == (False, (0, 6))


def test_structure_theorem_small_sweep():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            assert check_structure_theorem(t)[0]


def relabelled_structure_check(t, subtrees):
    """The structure check on relabelled subtrees: the kernel on each
    ``sub.tree.graph`` of ``decompose(t)``, and a bit-by-bit lift to t's
    labels."""
    n = t.num_vertices
    _, expected = eccentric_adjacency(t.graph)
    union = [0] * n
    for sub in subtrees:
        labels = sub.vertices
        _, sub_nbrs = eccentric_adjacency(sub.tree.graph)
        for a, mask in enumerate(sub_nbrs):
            for b in members(mask):
                union[labels[a]] |= 1 << labels[b]
    if union == expected:
        return True, None
    return False, min(
        (u, v) if u < v else (v, u) for u in range(n) for v in members(union[u] ^ expected[u])
    )


def oracle_corpus():
    for n in range(2, 8):
        yield from enumerate_trees(n)
    for seed in range(2000):
        yield random_tree(9 + seed % 72, seed=seed)


def test_structure_check_matches_the_relabelled_subtrees(monkeypatch):
    # Every labelled tree with n <= 7, then 2,000 random trees with 9..80
    # vertices: the masks the check runs the kernel on are the vertex sets
    # of decompose's subtrees, and the verdicts agree.
    masks = []
    real = trees.eccentric_adjacency

    def recorded(g, keep=None):
        if keep is not None:
            masks.append(keep)
        return real(g, keep)

    monkeypatch.setattr(trees, "eccentric_adjacency", recorded)
    for t in oracle_corpus():
        masks.clear()
        subtrees = decompose(t).induced_subtrees
        assert check_structure_theorem(t) == relabelled_structure_check(t, subtrees)
        expected = [] if len(subtrees) == 1 else [sum(1 << v for v in s.vertices) for s in subtrees]
        assert masks == expected


def test_structure_check_runs_the_kernel_once_per_diametral_pair(monkeypatch, reference_tree):
    runs = []
    real = eccentric.eccentric_sets

    def counted(g, keep=None):
        runs.append(keep)
        return real(g, keep)

    monkeypatch.setattr(eccentric, "eccentric_sets", counted)
    corpus = [reference_tree, Tree(path(2)), Tree(path(9)), Tree(double_star(2, 3))]
    corpus += [random_tree(n, seed=n) for n in range(3, 40)]
    for t in corpus:
        pairs = len(diametrical_paths(t))
        runs.clear()
        assert check_structure_theorem(t) == (True, None)
        if pairs == 1:
            assert runs == []  # the subtree is the tree itself: nothing to run
        else:
            # One run on the whole tree, then one masked run per pair.
            assert runs[0] is None and len(runs) == 1 + pairs
            assert all(keep is not None for keep in runs[1:])


@pytest.mark.parametrize(
    "t,expected",
    [
        (Tree(path(7)), 3),  # even diameter
        (Tree(path(6)), 0),  # odd diameter, unique diametrical path
        (Tree(star(3)), 3),
        (Tree(double_star(2, 2)), 4),  # odd diameter, several diametrical paths
    ],
)
def test_predicted_tree_girth(t, expected):
    assert predicted_tree_girth(t) == expected


def test_double_sweep_matches_the_distance_table():
    for n in range(2, 8):
        for t in enumerate_trees(n):
            dd = all_pairs_distances(t.graph)
            pairs = [
                (u, v) for u in range(n) for v in range(u + 1, n) if dd.dist[u][v] == dd.diameter
            ]
            if dd.diameter % 2 == 0:
                expected_girth = 3
            else:
                expected_girth = 0 if len(pairs) == 1 else 4
            assert predicted_tree_girth(t) == expected_girth
            # The vertices on the u-v path, ordered by distance from u.
            expected_paths = [
                tuple(sorted(
                    (w for w in range(n) if dd.dist[u][w] + dd.dist[w][v] == dd.diameter),
                    key=lambda w: dd.dist[u][w],
                ))
                for u, v in pairs
            ]
            assert [p.vertices for p in diametrical_paths(t)] == expected_paths


def test_prediction_side_never_runs_the_kernel(monkeypatch, reference_tree):
    def forbidden(g):
        raise AssertionError("eccentric-sets kernel called")

    monkeypatch.setattr(graphs, "eccentric_sets", forbidden)
    monkeypatch.setattr(eccentric, "eccentric_sets", forbidden)
    monkeypatch.setattr(trees, "eccentric_adjacency", forbidden)
    assert predicted_tree_girth(reference_tree) == 3
    assert len(diametrical_paths(reference_tree)) == 3
    assert predicted_tree_girth(Tree(double_star(2, 3))) == 4


def test_monotone_exclusion_small_sweep():
    for n in range(2, 7):
        for t in enumerate_trees(n):
            assert check_monotone_exclusion(t)


@pytest.mark.parametrize(
    "ecc, nbrs, expected",
    [
        ((3, 2, 1), [0b010, 0b101, 0b010], False),  # 0 - 1 - 2 increasing
        ((1, 2, 1), [0b010, 0b101, 0b010], True),
        ((3, 2, 1, 3), [0b0010, 0b1101, 0b0010, 0b0010], False),
        ((2, 2, 1), [0b010, 0b101, 0b010], True),
    ],
)
def test_monotone_exclusion_detects_an_increasing_two_path(monkeypatch, ecc, nbrs, expected):
    # The theorem holds on every tree, so feed the check a made-up E(T).
    monkeypatch.setattr(trees, "eccentric_adjacency", lambda g: (ecc, nbrs))
    assert check_monotone_exclusion(Tree(path(len(ecc)))) is expected


def test_shape_predicates():
    assert is_star(Tree(star(4)))
    assert is_star(Tree(path(2))) and is_star(Tree(path(3)))
    assert not is_star(Tree(path(4)))
    assert is_p2(Tree(path(2)))
    assert is_p4(Tree(path(4)))
    assert not is_p4(Tree(star(3)))
