"""Dense arbitrary-precision integer matrices and exact determinants.

Python ints are unbounded, so everything here is exact by construction; the
Bareiss routine keeps intermediate values fraction-free and skips the rows
that are zero in the pivot column, which is most rows of a sparse
eccentricity matrix. A Leibniz-expansion oracle (capped at 9x9) provides
the independent verification path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, UnsupportedSizeError

ORACLE_SIZE_LIMIT = 9


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise InputError("matrix dimensions must be positive")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise InputError("entry grid does not match declared dimensions")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        grid = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(rows=len(grid), cols=len(grid[0]) if grid else 0, entries=grid)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def kronecker_matrix(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """A (x) B, the block matrix whose (i,j) block is a[i][j] * B.

    Row p * b.rows + q pairs row p of a with row q of b: the first operand
    is most significant, the layout of ``products.ProductIndexMap``.
    """
    grid = tuple(
        tuple(x * y for x in row_a for y in row_b)
        for row_a in a.entries
        for row_b in b.entries
    )
    return IntMatrix(rows=a.rows * b.rows, cols=a.cols * b.cols, entries=grid)


def determinant(m: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination.

    A row whose entry in the pivot column is zero is not touched: the
    Bareiss step would only scale it by p_k / p_{k-1} (p_k the pivot of
    step k), and those factors telescope. ``div[i]`` is the pivot of the
    step that last updated row i (1 before any), so the row's current
    Bareiss value is ``a[i][j] * prev // div[i]``, the division exact.
    """
    if not m.is_square:
        raise InputError("determinant requires a square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    div = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    div[k], div[r] = div[r], div[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = a[k]
        scale = div[k]
        if scale != prev:
            for j in range(k, n):
                row_k[j] = row_k[j] * prev // scale
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            if aik == 0:
                continue
            scale = div[i]
            for j in range(k + 1, n):
                # Bareiss identity: the division is exact.
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // scale
            row_i[k] = 0
            div[i] = pivot
        prev = pivot
    return sign * a[n - 1][n - 1] * prev // div[n - 1]


def determinant_oracle(m: IntMatrix) -> int:
    """Signed permutation (Leibniz) expansion; limited to 9x9."""
    if not m.is_square:
        raise InputError("determinant requires a square matrix")
    if m.rows > ORACLE_SIZE_LIMIT:
        raise UnsupportedSizeError(f"oracle limited to {ORACLE_SIZE_LIMIT}x{ORACLE_SIZE_LIMIT}")
    n = m.rows
    entries = m.entries
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            term *= entries[i][perm[i]]
            if term == 0:
                break
        if term == 0:
            continue
        total += term if _permutation_sign(perm) > 0 else -term
    return total


def _permutation_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        cycle = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign
