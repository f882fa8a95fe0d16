"""Dense matrices and exact elimination.

One elimination loop serves ``rank``, ``det`` and ``int_det``.  It
converts every entry into the target once, picks the first nonzero
entry of the leftmost remaining column as pivot, so it is deterministic
and exact, and runs in one of two modes:

* Fraction-free (Bareiss), for ``rank`` over the polynomial ring (the
  generic target) and for every determinant: each update divides by
  the previous pivot, and the Bareiss minor identity makes that
  division exact.  Entries stay polynomials (or integers) whose size is
  bounded by the minors they equal, and the last pivot is the
  determinant up to the sign of the row swaps.  ``det`` therefore
  returns an element of whichever target it is given, and stops with
  zero at the first column that has no pivot.
* Gaussian, for ``rank`` over the field targets (number fields, Q and
  Z/p): each pivot is inverted once, each eliminated row's multiplier
  is one product with that inverse, and each entry then costs one
  product and one difference.  Bareiss would instead divide every
  updated entry by the previous pivot, and in a number field each
  division is an extended Euclid, far dearer than a product.

``minor_gcd`` does not enumerate the C(n, r)^2 minors of an n x n
matrix.  It first compresses the matrix: row echelon form, then row
echelon form of the transpose of the nonzero rows, both by row steps
that are invertible over Q[t] (swaps, ``a*row - b*t^s*other_row`` with
a a nonzero integer, division by an integer content).  Left
multiplication by an invertible matrix over Q[t] keeps the gcd of the
r x r minors up to a rational unit, since each new minor is a Q[t]
combination of the old ones (Cauchy-Binet) and the inverse gives the
converse; transposing keeps it too.  What is left is a k x k matrix, k
the generic rank, and ``det`` takes the minors of that: one
determinant when r = k, as for every boundary the pipeline asks about.
This is the determinantal-divisor route of Kannan and Bachem (1979) and
Storjohann (2000), stopped before the Smith form.
"""

from __future__ import annotations

import itertools
import math

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


class _Integers:
    """The integers as an elimination target, for ``int_det``."""

    zero = 0
    one = 1

    @staticmethod
    def convert(x: int) -> int:
        return x

    @staticmethod
    def div(a: int, b: int) -> int:
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("inexact integer division in elimination")
        return q


_INTEGERS = _Integers()


def _eliminate(m: Matrix, target, fraction_free: bool):
    """Row-reduce ``m`` over the target, one column at a time.

    Yields, per column, ``None`` when no row below the pivots found so
    far is nonzero there, otherwise ``(pivot, swapped)`` once the rows
    below the pivot are reduced; ``swapped`` tells whether bringing the
    pivot up exchanged two rows.  Stops once every row holds a pivot.
    Each entry goes through ``target.convert`` once.
    """
    convert = target.convert
    rows = [[convert(e) for e in row] for row in m.rows]
    nr, nc = m.nrows, m.ncols
    rk = 0
    prev = None
    for col in range(nc):
        if rk == nr:
            return
        for r in range(rk, nr):
            if rows[r][col]:
                break
        else:
            yield None
            continue
        swapped = r != rk
        if swapped:
            rows[rk], rows[r] = rows[r], rows[rk]
        prow = rows[rk]
        p = prow[col]
        if fraction_free:
            for row in rows[rk + 1:]:
                head = row[col]
                for c in range(col + 1, nc):
                    num = row[c] * p - head * prow[c]
                    row[c] = num if prev is None else target.div(num, prev)
            prev = p
        else:
            inv = None  # inverted on first need: often no row needs it
            for row in rows[rk + 1:]:
                head = row[col]
                if head:
                    if inv is None:
                        inv = target.div(target.one, p)
                    f = head * inv
                    for c in range(col + 1, nc):
                        if prow[c]:
                            row[c] = row[c] - f * prow[c]
        rk += 1
        yield p, swapped


def rank(m: Matrix, target) -> int:
    """Exact rank over the target: the number of pivots, found
    fraction-free over the polynomial ring and by Gaussian elimination
    over the field targets (see the module docstring)."""
    fraction_free = isinstance(target, RationalFunctionField)
    return sum(1 for step in _eliminate(m, target, fraction_free) if step)


def det(m: Matrix, target):
    """Exact determinant over the target, as an element of the target
    (the empty matrix gives one).

    Fraction-free elimination leaves the determinant as the last pivot,
    up to the sign of the row swaps; a column without a pivot means the
    determinant is zero, and elimination stops there.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    if m.nrows == 0:
        return target.one
    sign = 1
    for step in _eliminate(m, target, fraction_free=True):
        if step is None:
            return target.zero
        d, swapped = step
        if swapped:
            sign = -sign
    return target.zero - d if sign < 0 else d


def int_det(rows) -> int:
    """Determinant of an integer matrix, exactly."""
    n = len(rows)
    return det(Matrix(n, n, rows), _INTEGERS)


def _echelon(rows, ncols: int) -> list:
    """Row echelon form by steps invertible over Q[t], on integer
    coefficient lists (ascending powers, ``[]`` for zero).

    Each column runs Euclid: the entry of lowest degree is the pivot,
    and every other row with an entry e of no lower degree becomes
    ``a*row - b*t^s*pivot_row`` (``a = lc(pivot)/g``, ``b = lc(e)/g``, g
    their gcd, s the degree gap) until e falls below the pivot's degree,
    then sheds its integer content; this repeats until the column holds
    one nonzero entry.  Among pivots of equal degree the one of smallest
    leading coefficient keeps the multipliers a, and so the coefficient
    growth, small.  Returns the nonzero rows, pivots moving right.
    """
    rows = [list(row) for row in rows]
    rk = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(rk, len(rows)) if rows[i][col]]
            if not live:
                break
            top = min(live, key=lambda i: (len(rows[i][col]), abs(rows[i][col][-1])))
            rows[rk], rows[top] = rows[top], rows[rk]
            if len(live) == 1:
                rk += 1
                break
            prow = rows[rk]
            dp, lp = len(prow[col]), prow[col][-1]
            for row in rows[rk + 1:]:
                if len(row[col]) < dp:
                    continue
                while len(row[col]) >= dp:
                    lead = row[col][-1]
                    g = math.gcd(lp, lead)
                    a, b, s = lp // g, lead // g, len(row[col]) - dp
                    for c in range(col, ncols):
                        x = [a * v for v in row[c]]
                        y = prow[c]
                        if y:
                            x.extend([0] * (len(y) + s - len(x)))
                            for j, v in enumerate(y, s):
                                x[j] -= b * v
                            while x and not x[-1]:
                                x.pop()
                        row[c] = x
                content = math.gcd(*(v for entry in row[col:] for v in entry))
                if content > 1:
                    row[col:] = [[v // content for v in entry] for entry in row[col:]]
    return rows[:rk]


def minor_gcd(m: Matrix, r: int) -> Poly:
    """Content-normalised gcd of all r x r minors of an integer
    polynomial matrix.

    The result is primitive with positive leading coefficient; it is the
    zero polynomial when every minor vanishes identically (including the
    vacuous case r > min(nrows, ncols)), and one when r = 0.  The minors
    are taken of the k x k compression of ``m`` (see the module
    docstring), k the generic rank, so r = k costs one determinant.
    """
    if r < 0:
        raise ValueError("minor size must be nonnegative")
    if r == 0:
        return Poly.one()
    rows = _echelon([[list(e.coeffs) for e in row] for row in m.rows], m.ncols)
    k = len(rows)
    if r > k:
        return Poly.zero()
    square = _echelon([list(col) for col in zip(*rows)], k)
    t = Matrix(k, k, [[Poly(e) for e in row] for row in square])
    target = RationalFunctionField()
    g = Poly.zero()
    for row_idx in itertools.combinations(range(k), r):
        for col_idx in itertools.combinations(range(k), r):
            d = det(t.submatrix(row_idx, col_idx), target)
            g = gcd_primitive(g, d)
            if g.coeffs == (1,):
                return g
    return g
