"""Dense matrices and exact elimination.

Both elimination paths pick the first nonzero entry of the leftmost
remaining column as pivot, so they are deterministic and exact.

* Over the polynomial ring (the generic target) and for ``det``,
  ``int_det`` and ``minor_gcd``, elimination is one-step fraction-free
  (Bareiss): every update divides by the previous pivot, and the Bareiss
  minor identity makes that division exact.  Entries stay polynomials
  (or integers) whose size is bounded by the minors they equal.
* Over the field targets (number fields, Q and Z/p) ``rank`` runs plain
  Gaussian elimination: one field division per eliminated row gives the
  multiplier, and each entry then costs one product and one difference.
  Bareiss would instead divide every updated entry by the previous
  pivot, and in a number field each division is an extended Euclid,
  far dearer than a product.
"""

from __future__ import annotations

import itertools

from .fields import RationalFunctionField
from .poly import Poly, gcd_primitive


class Matrix:
    """An immutable dense matrix over an arbitrary exact ring."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows):
        rows = tuple(tuple(r) for r in rows)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ValueError(
                f"shape mismatch: declared {nrows}x{ncols}, "
                f"got rows of lengths {[len(r) for r in rows]}"
            )
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def identity(cls, n: int, one=1, zero=0) -> "Matrix":
        return cls(n, n, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int, zero=0) -> "Matrix":
        return cls(nrows, ncols, [[zero] * ncols for _ in range(nrows)])

    def __getitem__(self, rc):
        r, c = rc
        return self.rows[r][c]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(
                a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
            )
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.rows!r})"

    def map(self, fn) -> "Matrix":
        return Matrix(
            self.nrows, self.ncols, [[fn(x) for x in row] for row in self.rows]
        )

    def mul(self, other: "Matrix", zero=None) -> "Matrix":
        """Matrix product; ``zero`` seeds the sums (needed when the
        inner dimension is 0, defaults to the zero polynomial)."""
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        if zero is None:
            zero = Poly.zero()
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(self.nrows, other.ncols, out)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        return Matrix(
            len(row_idx),
            len(col_idx),
            [[self.rows[r][c] for c in col_idx] for r in row_idx],
        )

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)


def _over_target(m: Matrix, target) -> Matrix:
    # polynomial entries go through the target's ring map; other
    # entries (int_det's integers) are already in the target
    return m.map(lambda e: target.convert(e) if isinstance(e, Poly) else e)


def rank(m: Matrix, target) -> int:
    """Exact rank over the target: fraction-free over the polynomial
    ring, Gaussian over the field targets (see the module docstring).

    Polynomial entries are pushed through the target's ring map first.
    """
    m = _over_target(m, target)
    rows = [list(r) for r in m.rows]
    fraction_free = isinstance(target, RationalFunctionField)
    nr, nc = m.nrows, m.ncols
    rk = 0
    prev = None
    for col in range(nc):
        pivot_row = None
        for r in range(rk, nr):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rk], rows[pivot_row] = rows[pivot_row], rows[rk]
        prow = rows[rk]
        p = prow[col]
        for r in range(rk + 1, nr):
            row = rows[r]
            head = row[col]
            if fraction_free:
                for c in range(col + 1, nc):
                    num = row[c] * p - head * prow[c]
                    row[c] = num if prev is None else target.div(num, prev)
            elif head:
                f = target.div(head, p)
                for c in range(col + 1, nc):
                    if prow[c]:
                        row[c] = row[c] - f * prow[c]
        prev = p
        rk += 1
        if rk == nr:
            break
    return rk


def det(m: Matrix, target):
    """Exact determinant over the target (empty matrix gives one)."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return target.one
    m = _over_target(m, target)
    rows = [list(r) for r in m.rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        pivot_row = None
        for r in range(k, n):
            if rows[r][k]:
                pivot_row = r
                break
        if pivot_row is None:
            return target.zero
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            sign = -sign
        p = rows[k][k]
        for r in range(k + 1, n):
            head = rows[r][k]
            for c in range(k + 1, n):
                num = rows[r][c] * p - head * rows[k][c]
                rows[r][c] = num if prev is None else target.div(num, prev)
        prev = p
    d = rows[n - 1][n - 1]
    return -d if sign < 0 else d


def int_det(rows) -> int:
    """Determinant of an integer matrix, exactly."""

    class _Ints:
        zero = 0
        one = 1

        @staticmethod
        def div(a, b):
            q, r = divmod(a, b)
            if r:
                raise ArithmeticError("inexact integer division in elimination")
            return q

    rows = [list(r) for r in rows]
    n = len(rows)
    return det(Matrix(n, n, rows), _Ints)


def minor_gcd(m: Matrix, r: int) -> Poly:
    """Content-normalised gcd of all r x r minors of a polynomial matrix.

    The result is primitive with positive leading coefficient; it is the
    zero polynomial when every minor vanishes identically (including the
    vacuous case r > min(nrows, ncols)), and one when r = 0.
    """
    if r < 0:
        raise ValueError("minor size must be nonnegative")
    if r == 0:
        return Poly.one()
    if r > min(m.nrows, m.ncols):
        return Poly.zero()
    target = RationalFunctionField()
    g = Poly.zero()
    for row_idx in itertools.combinations(range(m.nrows), r):
        for col_idx in itertools.combinations(range(m.ncols), r):
            d = det(m.submatrix(row_idx, col_idx), target)
            g = gcd_primitive(g, d)
            if g.coeffs == (1,):
                return g
    return g
