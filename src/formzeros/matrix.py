"""Dense matrices and exact elimination: one elimination over Z[t]
and Z/p[t], Gaussian elimination over number fields.

Every matrix the pipeline hands this module has integer polynomial
entries: complexes parse integer coefficients only, and mapping tori
and deformation complexes are built from integers.  ``_echelon``,
and so ``rank``, ``det`` and ``minor_gcd``, take integer matrices only
and raise ``ValueError`` on a rational entry.

``_echelon`` brings a matrix to row echelon form by steps that are
invertible over Q[t]: row swaps, ``a*row - b*t^s*other_row`` with a a
nonzero integer, and division of a row by its integer content.  Given
a prime p it works on residues mod p instead, and its steps are
invertible over F_p[t].  It answers four questions:

* ``rank`` over the polynomial ring (the generic target) is the number
  of nonzero rows it returns; ``rank`` at t = 0 over Q, and over Z/p,
  is that number for the matrix of constant terms, mod p for Z/p;
* ``det`` is the product of the diagonal it leaves, times den/num for
  the integers num/den its steps multiplied the determinant by (-1
  per swap, a per step, 1/content per content division); ``int_det``
  is ``det`` of a constant matrix;
* ``minor_gcd`` does not enumerate the C(n, k)^2 maximal minors of an
  n x n matrix of generic rank k.  It compresses the matrix: row
  echelon form, then row echelon form of the transpose of the nonzero
  rows.  Left multiplication by an invertible matrix over Q[t] keeps
  the gcd of the k x k minors up to a rational unit, since each new
  minor is a Q[t] combination of the old ones (Cauchy-Binet) and the
  inverse gives the converse; transposing keeps it too.  What is left
  is an upper-triangular k x k matrix, whose one k x k minor is the
  product of its diagonal.  This is the determinantal-divisor route of
  Kannan and Bachem (1979) and Storjohann (2000), stopped before the
  Smith form.

Over a number field ``rank`` is Gaussian elimination: it reduces every
entry into the field once, takes the first nonzero entry of the
leftmost remaining column as pivot, inverts that pivot only when a row
below needs it, and then costs one product per eliminated row for its
multiplier and one product and one difference per updated entry.  In
a field of degree k a product is a k x k convolution of integers and
one gcd, while an inverse is an extended Euclid by integer
pseudo-division, up to k steps each of several polynomial updates, so
a pivot with nothing below it is never inverted.
"""

from __future__ import annotations

import math

from .fields import NumberField, PrimeField, RationalFunctionField
from .poly import Poly


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

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)


def _integer_rows(m: Matrix) -> list:
    """The rows of an integer polynomial matrix as integer coefficient
    lists (ascending powers, ``[]`` for zero)."""
    if not all(e.is_integral() for row in m.rows for e in row):
        raise ValueError("matrix entries must be integer polynomials")
    return [[list(e.coeffs) for e in row] for row in m.rows]


def _echelon(rows, ncols: int, p: int = 0) -> tuple[list, int, int]:
    """Row echelon form by steps invertible over Q[t], on integer
    coefficient lists (ascending powers, ``[]`` for zero); with a prime
    ``p``, by steps invertible over F_p[t] on residues mod p.

    Each column runs Euclid: the entry of lowest degree is the pivot,
    and every other row with an entry e of no lower degree becomes
    ``a*row - b*t^s*pivot_row`` (``a = lc(pivot)/g``, ``b = lc(e)/g``, g
    their gcd, s the degree gap) until e falls below the pivot's degree,
    then sheds its integer content; this repeats until the column holds
    one nonzero entry.  Among pivots of equal degree the one of smallest
    leading coefficient keeps the multipliers a, and so the coefficient
    growth, small.  Modulo p the rows are reduced on entry and every
    updated entry after its step; a is then a nonzero residue below p,
    and so is a content, so each step stays invertible over F_p[t].
    Returns the nonzero rows, pivots moving right, and the factor
    num/den the steps multiplied a square determinant by (over Z[t]):
    -1 per swap, a per step, 1/content per content division.
    """
    if p:
        rows = [[_trim([v % p for v in entry]) for entry in row] for row in rows]
    else:
        rows = [list(row) for row in rows]
    num = den = 1
    rk = 0
    for col in range(ncols):
        while True:
            live = [i for i in range(rk, len(rows)) if rows[i][col]]
            if not live:
                break
            top = min(live, key=lambda i: (len(rows[i][col]), abs(rows[i][col][-1])))
            if top != rk:
                rows[rk], rows[top] = rows[top], rows[rk]
                num = -num
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
                    num *= a
                    for c in range(col, ncols):
                        x = [a * v for v in row[c]]
                        y = prow[c]
                        if y:
                            x.extend([0] * (len(y) + s - len(x)))
                            for j, v in enumerate(y, s):
                                x[j] -= b * v
                        row[c] = _trim([v % p for v in x] if p else x)
                content = math.gcd(*(v for entry in row[col:] for v in entry))
                if content > 1:
                    row[col:] = [[v // content for v in entry] for entry in row[col:]]
                    den *= content
    return rows[:rk], num, den


def _trim(x: list) -> list:
    """``x`` without its trailing zeros."""
    while x and not x[-1]:
        x.pop()
    return x


def rank(m: Matrix, target) -> int:
    """Exact rank over the target: the number of rows ``_echelon``
    keeps of the matrix for the generic target, and of its constant
    terms for Q and Z/p at t = 0 (mod p for Z/p); the number of pivots
    of Gaussian elimination over a number field."""
    if isinstance(target, RationalFunctionField):
        return len(_echelon(_integer_rows(m), m.ncols)[0])
    if not isinstance(target, NumberField):
        p = target.p if isinstance(target, PrimeField) else 0
        rows = [[_trim(e[:1]) for e in row] for row in _integer_rows(m)]
        return len(_echelon(rows, m.ncols, p)[0])
    reduce = target.reduce
    rows = [[reduce(e) for e in row] for row in m.rows]
    nr, nc = m.nrows, m.ncols
    rk = 0
    for col in range(nc):
        if rk == nr:
            break
        for r in range(rk, nr):
            if rows[r][col]:
                break
        else:
            continue
        rows[rk], rows[r] = rows[r], rows[rk]
        prow = rows[rk]
        inv = None  # inverted on first need: often no row needs it
        for row in rows[rk + 1:]:
            head = row[col]
            if head:
                if inv is None:
                    inv = prow[col].inverse()
                f = head * inv
                for c in range(col + 1, nc):
                    if prow[c]:
                        row[c] = row[c] - f * prow[c]
        rk += 1
    return rk


def det(m: Matrix) -> Poly:
    """Exact determinant of a square integer polynomial matrix (the
    empty matrix gives one).

    ``_echelon`` leaves a triangular matrix when the determinant is
    nonzero; the determinant is the product of its diagonal divided by
    the factor num/den the elimination steps applied, exactly on ints.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    rows, num, den = _echelon(_integer_rows(m), m.ncols)
    if len(rows) < m.nrows:
        return Poly.zero()
    d = _diagonal_product(rows)
    if num == den:
        return d
    return Poly([c * den // num for c in d.coeffs])


def _diagonal_product(rows) -> Poly:
    """The product of the diagonal of a square echelon form."""
    d = Poly.one()
    for i, row in enumerate(rows):
        d = d * Poly(row[i])
    return d


def int_det(rows) -> int:
    """Determinant of an integer matrix, exactly."""
    n = len(rows)
    return det(Matrix(n, n, [[Poly((e,)) for e in row] for row in rows])).constant_term


def minor_gcd(m: Matrix, r: int) -> Poly:
    """Content-normalised gcd of the r x r minors of an integer
    polynomial matrix of generic rank k, for r = 0 or r >= k.

    The result is primitive with positive leading coefficient.  It is
    one when r = 0, zero when r > k (every r x r minor vanishes), and at
    r = k the primitive part of the diagonal product of the k x k
    compression (see the module docstring).  A size 0 < r < k, which
    the pipeline never asks for, raises ``ValueError``.
    """
    if r < 0:
        raise ValueError("minor size must be nonnegative")
    if r == 0:
        return Poly.one()
    rows = _echelon(_integer_rows(m), m.ncols)[0]
    k = len(rows)
    if r > k:
        return Poly.zero()
    if r < k:
        raise ValueError(f"minor size {r} is below the generic rank {k}")
    square = _echelon([list(col) for col in zip(*rows)], k)[0]
    return _diagonal_product(square).primitive()
