"""Dense arbitrary-precision integer matrices and exact determinants.

Python ints are unbounded, so everything here is exact by construction.
``determinant`` splits a matrix into the blocks of its nonzero pattern,
found by the bitset flood fill of ``graphs``, and multiplies their
determinants: a bipartite block [[0, B], [C, 0]] needs only B and C, and
only B when C is B transposed, as in an eccentricity matrix. Each block
left is one Bareiss run, which keeps intermediate values fraction-free and
skips the rows that are zero in the pivot column. A Leibniz-expansion
oracle (capped at 9x9) provides the independent verification path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, UnsupportedSizeError
from .graphs import _component_masks, members

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
    """Exact determinant: the product of the determinants of the blocks
    that m's nonzero pattern falls into.

    The pattern is the graph in which i ~ j when a[i][j] or a[j][i] is
    nonzero. Ordering the vertices component by component is a symmetric
    permutation, which keeps the determinant and makes m block-diagonal
    with one block per component. A zero row or column gives 0 at once. A
    bipartite component with sides X and Y is [[0, B], [C, 0]], so its
    determinant is 0 when |X| != |Y| and otherwise (-1)^|X| det B det C;
    when C is B transposed, as in every symmetric matrix, det C = det B and
    one Bareiss run of side |X| is enough. Any other component is one
    Bareiss run on its own rows and columns.
    """
    if not m.is_square:
        raise InputError("determinant requires a square matrix")
    n = m.rows
    a = m.entries
    # One '0'/'1' digit per entry, row-major: row i is a slice, column i a
    # stride, and a reversed slice parses to its bitset (bit j for entry j).
    digits = bytes(map(bool, itertools.chain.from_iterable(a))).translate(
        bytes.maketrans(b"\0\1", b"01")
    )
    nbrs = []
    for i in range(n):
        row = int(digits[i * n:(i + 1) * n][::-1], 2)
        col = int(digits[i::n][::-1], 2)
        if not row or not col:
            return 0
        nbrs.append(row | col)
    det = 1
    for block, even in _component_masks(nbrs):
        odd = block ^ even
        if _independent(nbrs, even) and _independent(nbrs, odd):
            xs, ys = members(even), members(odd)
            if len(xs) != len(ys):
                return 0
            b = [[a[x][y] for y in ys] for x in xs]
            c = [[a[y][x] for x in xs] for y in ys]
            same = c == [list(col) for col in zip(*b)]
            det_b = _bareiss(b)
            det_c = det_b if same else _bareiss(c)
            det *= -det_b * det_c if len(xs) % 2 else det_b * det_c
        else:
            vs = members(block)
            det *= _bareiss([[a[i][j] for j in vs] for i in vs])
        if not det:
            return 0
    return det


def _independent(nbrs: list[int], side: int) -> bool:
    """True iff no edge of the pattern, a loop (nonzero diagonal entry)
    included, has both ends in the bitset ``side``."""
    return all(not nbrs[v] & side for v in members(side))


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
