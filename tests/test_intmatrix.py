import random

import pytest

from ecclab.errors import InputError, UnsupportedSizeError
from ecclab.intmatrix import (
    IntMatrix,
    antidiagonal_j,
    determinant,
    determinant_oracle,
    kronecker_matrix,
)


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
    assert m[1, 0] == 3
    assert m.is_square


def test_known_determinants():
    assert determinant(IntMatrix.identity(5)) == 1
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
        determinant_oracle(IntMatrix.identity(10))
    assert determinant_oracle(IntMatrix.identity(9)) == 1


def test_bareiss_agrees_with_oracle_on_randoms():
    rng = random.Random(11)
    for _ in range(300):
        m = rand_matrix(rng, rng.randint(1, 6))
        assert determinant(m) == determinant_oracle(m)


def test_bareiss_handles_zero_pivots():
    m = IntMatrix.from_rows([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
    assert determinant(m) == determinant_oracle(m) == -6


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


def test_antidiagonal():
    assert antidiagonal_j(3).entries == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert determinant(antidiagonal_j(2)) == -1
    assert determinant(antidiagonal_j(4)) == 1
    with pytest.raises(InputError):
        antidiagonal_j(0)
