import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import fraction_determinant
from ecclab import eccentric
from ecclab.eccentric import eccentricity_determinant, eccentricity_matrix
from ecclab.errors import InputError, UnsupportedSizeError
from ecclab.families import double_star, path, star
from ecclab.intmatrix import (
    IntMatrix,
    determinant,
    determinant_oracle,
    kronecker_matrix,
)
from ecclab.products import cartesian_product
from ecclab.trees import random_tree


def identity(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def rand_matrix(rng: random.Random, n: int, bound: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    )


def test_construction_validation():
    with pytest.raises(InputError):
        IntMatrix(rows=2, cols=2, entries=((1, 2),))
    with pytest.raises(InputError):
        IntMatrix(rows=0, cols=0, entries=())
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.entries[1][0] == 3
    assert m.is_square


def test_known_determinants():
    assert determinant(identity(5)) == 1
    assert determinant(IntMatrix.from_rows([[3]])) == 3
    assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert determinant(IntMatrix.from_rows([[2, 0, 1], [1, 3, 2], [0, 1, 4]])) == 21
    # Rank-deficient: second row is twice the first.
    assert determinant(IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [5, 1, 0]])) == 0


def test_determinant_needs_square():
    with pytest.raises(InputError):
        determinant(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(InputError):
        determinant_oracle(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_oracle_size_limit():
    with pytest.raises(UnsupportedSizeError):
        determinant_oracle(identity(10))
    assert determinant_oracle(identity(9)) == 1


def test_oracle_matches_fractions_on_randoms():
    # Elimination over fractions shares no step with the Leibniz sum, nor
    # with Bareiss.
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 9)
        rows = [list(row) for row in rand_matrix(rng, n, 4).entries]
        kind = rng.choice(["plain", "zero row", "zero column", "rank deficient", "sparse"])
        if kind == "zero row":
            rows[rng.randrange(n)] = [0] * n
        elif kind == "zero column":
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        elif kind == "rank deficient" and n > 1:
            # The last row is a combination of up to n - 1 of the others.
            others = rng.sample(range(n - 1), rng.randint(1, n - 1))
            coef = {i: rng.randint(-2, 2) for i in others}
            rows[-1] = [sum(c * rows[i][j] for i, c in coef.items()) for j in range(n)]
        elif kind == "sparse":
            rows = [[x if rng.random() < 0.3 else 0 for x in row] for row in rows]
        expected = fraction_determinant(rows)
        if kind in ("zero row", "zero column") or (kind == "rank deficient" and n > 1):
            assert expected == 0
        assert determinant_oracle(IntMatrix.from_rows(rows)) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_oracle_signs_every_permutation_matrix(n):
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        m = IntMatrix.from_rows([[int(perm[i] == j) for j in range(n)] for i in range(n)])
        assert determinant_oracle(m) == (-1) ** inversions


def test_bareiss_agrees_with_oracle_on_randoms():
    rng = random.Random(11)
    for _ in range(300):
        m = rand_matrix(rng, rng.randint(1, 6))
        assert determinant(m) == determinant_oracle(m)


def test_bareiss_handles_zero_pivots():
    m = IntMatrix.from_rows([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
    assert determinant(m) == determinant_oracle(m) == -6


@pytest.mark.parametrize(
    "rows",
    [
        # Row 2 is zero in column 0 and gets no update in step 0; row 1
        # turns zero in column 1, so step 1 swaps row 2 up as the pivot
        # row, which must be rescaled by the pivot 2 of step 0; the row
        # swapped down is then skipped, so the last entry is read with its
        # scale still deferred.
        [[2, 4, 0], [1, 2, 1], [0, 3, 5]],
        # A stale pivot row without a swap.
        [[2, 1, 0], [0, 3, 1], [1, 1, 4]],
        # The last row is zero until its diagonal: deferred through every step.
        [[2, 1, 1], [1, 3, 1], [0, 0, 5]],
        # A row skipped over two steps with pivots 3 and 5, then updated.
        [[3, 1, 0, 1], [1, 2, 1, 0], [0, 1, 4, 2], [0, 0, 2, 5]],
        # Two swaps. The first brings up a stale row and sends down a row
        # updated by pivot 3, which waits to the end: its scale must travel
        # with it (the 3x3 swap case above is blind to that).
        [[3, 2, 0, 0], [3, 2, 0, 3], [0, 2, 2, 0], [1, 0, 0, 2]],
        # The last row is deferred through three steps.
        [[3, 1, 2, 0], [1, 4, 0, 1], [2, 0, 5, 1], [0, 0, 0, 7]],
    ],
)
def test_bareiss_skipped_rows(rows):
    m = IntMatrix.from_rows(rows)
    assert determinant(m) == determinant_oracle(m) != 0


def test_bareiss_matches_fractions_on_sparse_randoms():
    rng = random.Random(17)
    for n, density in [(20, 0.05), (20, 0.3), (33, 0.1), (48, 0.05), (64, 0.03), (64, 0.15)]:
        rows = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        # A nonzero entry in every row and column along a random
        # permutation: without it most of these would have a zero row, and
        # the pivots now come from row swaps.
        perm = rng.sample(range(n), n)
        for i in range(n):
            rows[i][perm[i]] = rng.choice([-1, 1]) * rng.randint(1, 9)
        assert determinant(IntMatrix.from_rows(rows)) == fraction_determinant(rows) != 0


@pytest.mark.parametrize(
    "factors",
    [
        [star(3), path(2), path(2), path(2)],
        [star(7), path(2), path(2), path(2)],
        [star(15), path(2), path(2)],
        [path(4), path(2), path(2)],
        [path(6), path(2), path(2)],
        [double_star(2, 3), path(2), path(2)],
        [random_tree(9, seed=3).graph, path(2), path(2)],
        [random_tree(14, seed=8).graph, path(2), path(2)],
    ],
)
def test_bareiss_matches_fractions_on_product_matrices(factors):
    m = eccentricity_matrix(cartesian_product(factors)[0])
    assert determinant(m) == fraction_determinant(m.entries)


ENTRIES = st.integers(-4, 4)


def grid(draw, rows, cols):
    return [draw(st.lists(ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)]


def off_diagonal(b, c):
    """[[0, B], [C, 0]] for B of shape p x q and C of shape q x p."""
    p, q = len(b), len(c)
    return [[0] * p + row for row in b] + [row + [0] * q for row in c]


@st.composite
def blocks(draw):
    kind = draw(st.sampled_from(["dense", "symmetric", "bipartite", "unequal", "zero", "five"]))
    if kind == "zero":
        return [[0]]
    if kind == "five":
        return [[5]]
    if kind == "dense":
        k = draw(st.integers(1, 6))
        return grid(draw, k, k)
    p = draw(st.integers(1, 4))
    q = p if kind != "unequal" else draw(st.integers(1, 4).filter(lambda q: q != p))
    b = grid(draw, p, q)
    c = [list(col) for col in zip(*b)] if kind == "symmetric" else grid(draw, q, p)
    return off_diagonal(b, c)


@st.composite
def block_matrices(draw, max_side=14):
    """Random blocks on the diagonal of a matrix of side at most
    ``max_side``, under a random symmetric permutation of its rows and
    columns, so the blocks are interleaved."""
    parts = []
    side = 0
    for part in draw(st.lists(blocks(), min_size=1, max_size=5)):
        if side + len(part) > max_side:
            break
        parts.append(part)
        side += len(part)
    perm = draw(st.permutations(range(side)))
    rows = [[0] * side for _ in range(side)]
    offset = 0
    for part in parts:
        for i, row in enumerate(part):
            for j, x in enumerate(row):
                rows[perm[offset + i]][perm[offset + j]] = x
        offset += len(part)
    return rows


@settings(max_examples=300)
@given(block_matrices())
@example([[0]])
@example([[5]])
@example([[0, 2, 0], [3, 0, 0], [0, 0, 5]])
@example([[0, 1, 2], [3, 0, 0], [4, 0, 0]])
def test_block_determinant_matches_fractions(rows):
    assert determinant(IntMatrix.from_rows(rows)) == fraction_determinant(rows)


@pytest.mark.parametrize("j", range(5))
def test_p4_times_p2_powers(j):
    g = cartesian_product([path(4)] + [path(2)] * j)[0] if j else path(4)
    assert determinant(eccentricity_matrix(g)) == (j + 2) ** (2 ** (j + 2))


def test_one_half_side_run_per_bipartite_block(monkeypatch):
    # E(S_31 box P_2^3) is K_32 x K_2^3: four bipartite components, each
    # with two sides of 32 vertices.
    sides = []
    real = eccentric._bareiss

    def counted(a):
        sides.append(len(a))
        return real(a)

    monkeypatch.setattr(eccentric, "_bareiss", counted)
    g = cartesian_product([star(31)] + [path(2)] * 3)[0]
    assert eccentricity_determinant(g) == (31 * 4 ** 2 * 5 ** 30) ** 8
    assert sides == [32] * 4


def test_kronecker_block_layout():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 5], [6, 7]])
    # Block (i,j) of the result is a[i][j] * b.
    assert kronecker_matrix(a, b).entries == (
        (0, 5, 0, 10),
        (6, 7, 12, 14),
        (0, 15, 0, 20),
        (18, 21, 24, 28),
    )


def test_kronecker_determinant_identity():
    rng = random.Random(13)
    for _ in range(50):
        n, p = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_matrix(rng, n, 5)
        b = rand_matrix(rng, p, 5)
        assert determinant(kronecker_matrix(a, b)) == determinant(a) ** p * determinant(b) ** n

