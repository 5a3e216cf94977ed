"""Dense arbitrary-precision integer matrices and exact determinants.

Python ints are unbounded, so everything here is exact by construction.
``block_determinant`` takes a matrix as the neighbour bitsets of its
symmetrised nonzero pattern and a function that fills one block's grid. It
splits the pattern into components, found by the bitset flood fill of
``graphs``, and multiplies their determinants: a bipartite block
[[0, B], [C, 0]] needs only B and C, and only B when C is B transposed, as
in an eccentricity matrix. Each block left is one Bareiss run, which keeps
intermediate values fraction-free and skips the rows that are zero in the
pivot column. ``determinant`` feeds it a dense ``IntMatrix``;
``eccentric.eccentricity_determinant`` feeds it ε(G) from E(G), with no
n x n table. The oracle, the Leibniz sum over permutations computed by
shared minors (capped at 9x9), provides the independent verification path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

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
    nonzero. A zero row or column gives 0 at once; otherwise
    ``block_determinant`` multiplies the blocks' determinants, checking for
    each bipartite block whether C is B transposed.
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
    return block_determinant(
        nbrs, lambda xs, ys: [[a[x][y] for y in ys] for x in xs], symmetric=False
    )


def block_determinant(
    nbrs: list[int],
    grid: Callable[[list[int], list[int]], list[list[int]]],
    symmetric: bool,
) -> int:
    """Determinant of the matrix whose nonzero pattern, made symmetric, is
    the graph with neighbour bitsets ``nbrs``, and whose submatrix on rows
    xs and columns ys is ``grid(xs, ys)``, a fresh list of lists.

    Ordering the vertices component by component is a symmetric
    permutation, which keeps the determinant and makes the matrix
    block-diagonal with one block per component. A bipartite component
    with sides X and Y is [[0, B], [C, 0]], so its determinant is 0 when
    |X| != |Y| and otherwise (-1)^|X| det B det C. When C is B transposed,
    as in every symmetric matrix, det C = det B and one Bareiss run of side
    |X| is enough: with ``symmetric`` set, C is never built; without it, C
    is built and compared with B transposed. Any other component is one
    Bareiss run on its own rows and columns.
    """
    det = 1
    for block, even in _component_masks(nbrs):
        odd = block ^ even
        if _independent(nbrs, even) and _independent(nbrs, odd):
            xs, ys = members(even), members(odd)
            if len(xs) != len(ys):
                return 0
            b = grid(xs, ys)
            if symmetric:
                det_b = det_c = _bareiss(b)
            else:
                c = grid(ys, xs)
                same = c == [list(col) for col in zip(*b)]
                det_b = _bareiss(b)
                det_c = det_b if same else _bareiss(c)
            det *= -det_b * det_c if len(xs) % 2 else det_b * det_c
        else:
            vs = members(block)
            det *= _bareiss(grid(vs, vs))
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
