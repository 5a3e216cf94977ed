"""Dense arbitrary-precision integer matrices and exact determinants.

Python ints are unbounded, so everything here is exact by construction.
``determinant`` is one Bareiss run, which keeps intermediate values
fraction-free and skips the rows that are zero in the pivot column; it
knows nothing of graphs. ``eccentric.eccentricity_determinant`` runs the
same ``_bareiss`` on the blocks of ε(G), filled from E(G) with no n x n
table. The oracle, the Leibniz sum over permutations computed by shared
minors (capped at 9x9), provides the independent verification path.
"""

from __future__ import annotations

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
    """Exact determinant: one Bareiss run on a copy of m's rows."""
    if not m.is_square:
        raise InputError("determinant requires a square matrix")
    return _bareiss([list(row) for row in m.entries])


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of the square grid ``a`` by Bareiss fraction-free
    elimination, overwriting ``a``.

    A row whose entry in the pivot column is zero is not touched: the
    Bareiss step would only scale it by p_k / p_{k-1} (p_k the pivot of
    step k), and those factors telescope. ``div[i]`` is the pivot of the
    step that last updated row i (1 before any), so the row's current
    Bareiss value is ``a[i][j] * prev // div[i]``, the division exact.
    """
    n = len(a)
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
    """The Leibniz sum over permutations, by shared minors; limited to 9x9.

    Rows are taken in order. After i rows, ``minors[used]`` is the sum of
    the products a[0][p(0)] ... a[i-1][p(i-1)] over the injections
    p of those rows onto the column set ``used``, each signed by its
    inversions: the minor on rows 0..i-1 and the columns of ``used``. Row i
    extends each minor by a column j not in ``used`` with a nonzero entry;
    the sign flips once for each used column above j, the inversions that
    j adds. Every permutation's term is counted once, but the terms that
    agree on their first rows share one product, so the sum takes at most
    2^n * n multiplications instead of n! * n.
    """
    if not m.is_square:
        raise InputError("determinant requires a square matrix")
    if m.rows > ORACLE_SIZE_LIMIT:
        raise UnsupportedSizeError(f"oracle limited to {ORACLE_SIZE_LIMIT}x{ORACLE_SIZE_LIMIT}")
    minors = {0: 1}
    for row in m.entries:
        nonzero = [(1 << j, x) for j, x in enumerate(row) if x]
        extended: dict[int, int] = {}
        get = extended.get
        for used, minor in minors.items():
            for bit, x in nonzero:
                if not used & bit:
                    # used & -bit: the used columns above this one.
                    if (used & -bit).bit_count() % 2:
                        extended[used | bit] = get(used | bit, 0) - minor * x
                    else:
                        extended[used | bit] = get(used | bit, 0) + minor * x
        minors = extended
    return minors.get((1 << m.rows) - 1, 0)
