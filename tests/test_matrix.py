from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

import formzeros.matrix

from formzeros.fields import (
    NumberField,
    NumberFieldElement,
    PrimeField,
    Rationals,
    RationalFunctionField,
)
from formzeros.matrix import Matrix, det, int_det, minor_gcd, rank
from formzeros.poly import Poly, gcd_primitive


def _pmat(rows):
    return Matrix(len(rows), len(rows[0]) if rows else 0,
                  [[Poly.parse(str(e)) if isinstance(e, (int,)) else Poly.parse(e)
                    for e in row] for row in rows])


RFF = RationalFunctionField()


def test_shape_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, [[Poly.one()]])


def test_identity_and_mul():
    i2 = Matrix.identity(2, Poly.one(), Poly.zero())
    m = _pmat([["t", "1"], ["0", "t"]])
    assert i2.mul(m) == m
    assert m.mul(i2) == m


def test_mul_inner_dimension_zero():
    a = Matrix(2, 0, [[], []])
    b = Matrix(0, 3, [])
    prod = a.mul(b)
    assert prod.nrows == 2 and prod.ncols == 3
    assert prod.is_zero()


def test_rank_generic_vs_specialised():
    # rows become dependent exactly at t = 1
    m = _pmat([["t", "1"], ["1", "t"]])  # det = t^2 - 1
    assert rank(m, RFF) == 2
    assert rank(m, NumberField(Poly((-1, 1)))) == 1
    assert rank(m, NumberField(Poly((-2, 1)))) == 2
    assert rank(m, Rationals()) == 2  # det at 0 is -1


def test_rank_zero_matrix():
    assert rank(Matrix.zeros(3, 2, Poly.zero()), RFF) == 0
    assert rank(Matrix(0, 5, []), RFF) == 0


def test_rank_needs_column_search():
    # first column identically zero; elimination must look right
    m = _pmat([["0", "1"], ["0", "t"]])
    assert rank(m, RFF) == 1


def _cofactor_det(rows, one):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return one
    total = one - one
    for j, head in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = head * _cofactor_det(minor, one)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_det_matches_cofactor_with_fraction_rows():
    """``det`` takes integer matrices only: a matrix with a rational
    coefficient raises, and once each row is cleared of its
    denominators ``det`` is the rational determinant times the product
    of the multipliers."""
    rng = random.Random(31)
    fractional = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[Poly([Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3, 6]))
                       for _ in range(rng.randint(1, 2))])
                 for _ in range(n)] for _ in range(n)]
        m = Matrix(n, n, rows)
        expected = _cofactor_det([list(r) for r in m.rows], Poly.one())
        mults = [math.lcm(*(c.denominator for e in row for c in e.coeffs)) for row in rows]
        if any(mult > 1 for mult in mults):
            with pytest.raises(ValueError, match="integer polynomials"):
                det(m)
        cleared = Matrix(n, n, [[e * mult for e in row] for row, mult in zip(rows, mults)])
        assert det(cleared) == expected * math.prod(mults), rows
        fractional += not expected.is_integral()
    assert fractional  # some determinants do keep a denominator


def _awkward_square(rng, n, entry):
    """A random n x n matrix, sometimes made singular (a row repeated
    or a column zeroed, the first one included) or made to need a row
    swap at the first pivot."""
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    shape = rng.choice(["plain", "repeated row", "zero column", "zero lead"])
    if n == 0:
        return rows
    if n >= 2 and shape == "repeated row":
        rows[rng.randrange(1, n)] = list(rows[0])
    elif shape == "zero column":
        col = rng.choice([0, rng.randrange(n)])
        for row in rows:
            row[col] = entry() * 0
    elif shape == "zero lead":
        rows[0][0] = entry() * 0
    return rows


def test_det_and_int_det_match_cofactor_over_z_and_zt():
    rng = random.Random(7207)
    for _ in range(60):
        n = rng.randint(0, 5)
        ints = _awkward_square(rng, n, lambda: rng.randint(-4, 4))
        assert int_det(ints) == _cofactor_det(ints, 1)
        polys = _awkward_square(
            rng, n, lambda: Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        )
        assert det(Matrix(n, n, polys)) == _cofactor_det(polys, Poly.one())
    assert int_det([]) == 1
    assert det(Matrix(0, 0, [])) == Poly.one()
    assert int_det([[0, 0], [3, 4]]) == 0
    assert int_det([[0, 2], [3, 4]]) == -6


def test_det_sign_under_row_swap_pivoting():
    # leading zero forces a swap; determinant keeps its sign
    m = _pmat([["0", "1"], ["1", "0"]])
    assert det(m) == Poly((-1,))


def test_int_det():
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0


def _unimodular_pair(rng, n, moves=12):
    """A random U in GL(n, Z) with its inverse, built from elementary
    moves: each row move on U is undone by a column move on U^-1."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [list(row) for row in u]
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.25:
            u[i], u[j] = u[j], u[i]
            for row in v:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in v:
                row[j] -= c * row[i]
    return u, v


def test_int_det_of_unimodular_conjugates():
    """U A U^-1 has the determinant of A, a triangular matrix with a
    planted diagonal, however large the conjugate's entries grow."""
    rng = random.Random(6151)

    def product(x, y):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]

    for _ in range(40):
        n = rng.randint(2, 5)
        diag = [rng.choice([0, 1, -1, 2, -3, 5, 7]) for _ in range(n)]
        a = [[diag[i] if i == j else rng.randint(-4, 4) * (j > i) for j in range(n)]
             for i in range(n)]
        u, v = _unimodular_pair(rng, n)
        assert product(u, v) == [[int(i == j) for j in range(n)] for i in range(n)]
        assert int_det(product(product(u, a), v)) == math.prod(diag), (u, a)


def test_specialize_matrix_prime_field():
    m = _pmat([["t + 3", "2"], ["5", "t"]])
    assert rank(m, PrimeField(3)) == 2  # det at t=0 is -10 = 2 mod 3


def test_minor_gcd_known():
    # both 1x1 minors share the factor t
    m = _pmat([["t", "t^2"]])
    assert minor_gcd(m, 1) == Poly((0, 1))
    assert minor_gcd(m, 0) == Poly.one()
    assert minor_gcd(m, 2) == Poly.zero()  # no 2x2 minors exist


def test_minor_gcd_full_rank_coprime():
    m = _pmat([["t", "0"], ["0", "t + 1"]])
    assert minor_gcd(m, 2) == Poly((0, 1, 1)).primitive()
    with pytest.raises(ValueError, match="below the generic rank"):
        minor_gcd(m, 1)  # only the maximal minors are taken


def test_rank_equals_largest_nonvanishing_minor():
    """Cross-check elimination rank against the minor characterisation,
    and ``minor_gcd`` at and above that rank against the minors."""
    rng = random.Random(88)
    for _ in range(25):
        nr, nc = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[Poly([rng.randint(-2, 2) for _ in range(2)])
                 for _ in range(nc)] for _ in range(nr)]
        m = Matrix(nr, nc, rows)
        r = rank(m, RFF)
        largest = 0
        for k in range(1, min(nr, nc) + 1):
            if not _minor_gcd_by_enumeration(m, k).is_zero():
                largest = k
        assert r == largest
        assert minor_gcd(m, r) == _minor_gcd_by_enumeration(m, r)
        assert minor_gcd(m, r + 1) == Poly.zero()


def test_rank_semicontinuity():
    """Specialising never raises the rank above the generic one."""
    rng = random.Random(4021)
    targets = [NumberField(Poly((-1, 1))), NumberField(Poly((1, 1, 1))),
               Rationals(), PrimeField(5)]
    for _ in range(25):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
                 for _ in range(nc)] for _ in range(nr)]
        m = Matrix(nr, nc, rows)
        generic = rank(m, RFF)
        for tgt in targets:
            assert rank(m, tgt) <= generic


def _reference_rank(rows, p: int) -> int:
    """Rank of an integer matrix by plain Gaussian elimination: over
    Z/p on ints mod p, or over Q on ``Fraction``s when p is 0."""
    rows = [[v % p if p else Fraction(v) for v in row] for row in rows]
    nc = len(rows[0]) if rows else 0
    rk = 0
    for col in range(nc):
        piv = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        prow = rows[rk]
        inv = pow(prow[col], -1, p) if p else 1 / prow[col]
        for row in rows[rk + 1:]:
            f = row[col] * inv
            for c in range(col, nc):
                row[c] = (row[c] - f * prow[c]) % p if p else row[c] - f * prow[c]
        rk += 1
    return rk


def test_rank_at_zero_matches_gaussian_reference():
    """Rank over Q and over Z/p at t = 0 agrees with plain Gaussian
    elimination on the constant terms.

    Each constant-term matrix is A * B + q * C for a prime q and a
    random inner dimension, so its rank mod q can fall below its rank
    over Q; entries are signed, some are multiples of q, and some rows
    and columns are zero.  Higher terms are random, as t = 0 drops them.
    """
    rng = random.Random(2026)
    primes = (2, 3, 5, 7)
    targets = [(Rationals(), 0)] + [(PrimeField(p), p) for p in primes]
    drops = 0
    for _ in range(240):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        q = rng.choice(primes)
        k = rng.randint(0, min(nr, nc))
        a = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nr)]
        b = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(k)]
        consts = [[sum(x * y for x, y in zip(row, col)) + q * rng.randint(-3, 3)
                   for col in zip(*b)] if k else
                  [q * rng.randint(-3, 3) for _ in range(nc)] for row in a]
        for _ in range(rng.randint(0, 2)):
            consts[rng.randrange(nr)] = [0] * nc
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(nc)
            for row in consts:
                row[j] = 0
        m = Matrix(nr, nc, [[Poly([c] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))])
                             for c in row] for row in consts])
        over_q = _reference_rank(consts, 0)
        for target, p in targets:
            expected = _reference_rank(consts, p)
            assert rank(m, target) == expected, (consts, target)
            drops += expected < over_q
    assert drops >= 100  # the mod-p ranks do fall below the rank over Q


def test_rank_at_zero_denominators():
    """A rational entry is refused at every target of the integer
    elimination, and by ``det`` and ``minor_gcd``."""
    m = Matrix(2, 2, [[Poly((Fraction(1, 2), 1)), Poly((Fraction(1, 3),))],
                      [Poly((Fraction(3, 2),)), Poly((1, 1))]])
    for call in (lambda: rank(m, Rationals()), lambda: rank(m, PrimeField(3)),
                 lambda: rank(m, RFF), lambda: det(m), lambda: minor_gcd(m, 2)):
        with pytest.raises(ValueError, match="integer polynomials"):
            call()


def _vanishes_at(minor: Poly, target) -> bool:
    """Whether a Z[t] polynomial maps to zero in a field target."""
    if isinstance(target, NumberField):
        return divmod(minor, target.modulus)[1].is_zero()
    if isinstance(target, PrimeField):
        return minor.constant_term % target.p == 0
    return minor.constant_term == 0


# irreducible moduli of degree 1-3, several not monic over Z
_DIFFERENTIAL_MODULI = ["t - 2", "3*t + 1", "t^2 + 1", "2*t^2 + t + 1",
                        "t^2 - 2", "t^3 - 2", "2*t^3 + t + 1"]
# diagonal factors that vanish at some of the targets below
_DIFFERENTIAL_PIVOTS = _DIFFERENTIAL_MODULI + ["1", "t", "2", "3", "5", "6*t + 15"]


def test_rank_over_fields_matches_minors():
    """Rank over every field target is the size of the largest minor
    that does not vanish there.

    Each matrix is A * D * B with D diagonal over factors that vanish at
    some target, so the ranks drop differently from target to target.
    """
    rng = random.Random(6021)
    targets = ([NumberField(Poly.parse(m)) for m in _DIFFERENTIAL_MODULI]
               + [Rationals()] + [PrimeField(p) for p in (2, 3, 5)])
    drops = 0
    for _ in range(40):
        nr, nc, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = Matrix(nr, k, [[Poly([rng.randint(-2, 2) for _ in range(2)])
                            for _ in range(k)] for _ in range(nr)])
        d = Matrix(k, k, [[Poly.parse(rng.choice(_DIFFERENTIAL_PIVOTS)) if i == j
                           else Poly.zero() for j in range(k)] for i in range(k)])
        b = Matrix(k, nc, [[Poly([rng.randint(-2, 2) for _ in range(2)])
                            for _ in range(nc)] for _ in range(k)])
        m = a.mul(d).mul(b)
        minors = {r: _minors(m, r) for r in range(1, min(nr, nc) + 1)}
        generic = rank(m, RFF)
        for tgt in targets:
            expected = max(
                (r for r, ms in minors.items()
                 if any(not _vanishes_at(x, tgt) for x in ms)),
                default=0,
            )
            assert rank(m, tgt) == expected, (m, tgt)
            drops += expected < generic
    assert drops  # the targets do see rank drops


# -- minor_gcd against the enumeration it replaced ------------------------


def _minors(m: Matrix, r: int) -> list:
    """Every r x r minor of ``m``, each taken by ``det``."""
    return [det(Matrix(r, r, [[m.rows[i][j] for j in ci] for i in ri]))
            for ri in itertools.combinations(range(m.nrows), r)
            for ci in itertools.combinations(range(m.ncols), r)]


def _minor_gcd_by_enumeration(m: Matrix, r: int) -> Poly:
    """Gcd of every r x r minor."""
    if r == 0:
        return Poly.one()
    g = Poly.zero()
    for minor in _minors(m, r):
        g = gcd_primitive(g, minor)
    return g


def _random_poly(rng, top=3):
    return Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, top))])


def _planted_product(rng, nr, nc, k):
    """A * D * B with D diagonal over factors that include 0 and shared
    roots, then a row or column zeroed now and then."""
    pivots = _DIFFERENTIAL_PIVOTS + ["0", "t^2 - 4*t + 4"]
    a = Matrix(nr, k, [[_random_poly(rng) for _ in range(k)] for _ in range(nr)])
    d = Matrix(k, k, [[Poly.parse(rng.choice(pivots)) if i == j else Poly.zero()
                       for j in range(k)] for i in range(k)])
    b = Matrix(k, nc, [[_random_poly(rng) for _ in range(nc)] for _ in range(k)])
    rows = [list(row) for row in a.mul(d).mul(b).rows]
    if nr and rng.random() < 0.3:
        rows[rng.randrange(nr)] = [Poly.zero()] * nc
    if nc and rng.random() < 0.3:
        col = rng.randrange(nc)
        for row in rows:
            row[col] = Poly.zero()
    return Matrix(nr, nc, rows)


def test_minor_gcd_matches_enumeration():
    """At r = 0, at the generic rank and above it; below it, a size
    the pipeline never asks for, ``minor_gcd`` raises."""
    rng = random.Random(9103)
    nontrivial = 0
    for _ in range(150):
        nr, nc, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(1, 5)
        m = _planted_product(rng, nr, nc, k)
        generic = rank(m, RFF)
        for r in range(min(nr, nc) + 2):
            if 0 < r < generic:
                with pytest.raises(ValueError, match="below the generic rank"):
                    minor_gcd(m, r)
                continue
            g = minor_gcd(m, r)
            assert g == _minor_gcd_by_enumeration(m, r), (m, r)
            nontrivial += g.degree >= 1
    assert nontrivial  # the planted factors do show up


def test_minor_gcd_degenerate_shapes():
    for nr, nc in [(0, 0), (0, 3), (3, 0)]:
        m = Matrix(nr, nc, [[Poly.zero()] * nc for _ in range(nr)])
        assert minor_gcd(m, 0) == Poly.one()
        assert minor_gcd(m, 1) == Poly.zero()
    zero = Matrix.zeros(3, 4, Poly.zero())
    assert [minor_gcd(zero, r) for r in range(5)] == [Poly.one()] + [Poly.zero()] * 4
    with pytest.raises(ValueError):
        minor_gcd(zero, -1)


def test_minor_gcd_matches_sympy_invariant_factors():
    """Over the PID Q[t] the gcd of the r x r minors is the product of
    the first r invariant factors; ``minor_gcd`` takes r = k, the
    generic rank, and r > k."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    t = sympy.symbols("t")
    rng = random.Random(4417)
    for _ in range(25):
        nr, nc, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        m = _planted_product(rng, nr, nc, k)
        sm = sympy.Matrix(nr, nc, lambda i, j: sum(
            c * t**e for e, c in enumerate(m[i, j].coeffs)))
        factors = invariant_factors(sm, domain=sympy.QQ[t])
        generic = rank(m, RFF)
        for r in range(1, min(nr, nc) + 1):
            if r < generic:
                with pytest.raises(ValueError, match="below the generic rank"):
                    minor_gcd(m, r)
                continue
            product = sympy.Poly(sympy.Mul(*factors[:r]), t)
            coeffs = [sympy.Rational(c) for c in reversed(product.all_coeffs())]
            expected = Poly([Fraction(int(c.p), int(c.q)) for c in coeffs])
            expected = expected.clear_denominators().primitive()
            assert minor_gcd(m, r) == expected, (m, r, factors)


def test_det_and_generic_rank_match_sympy():
    """``det`` and ``rank`` over Q(t) agree with sympy over QQ[t] on
    planted products, some rows scaled by a constant."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.symbols("t")
    ring, field = sympy.QQ[t], sympy.QQ.frac_field(t)
    rng = random.Random(2719)
    deficient = 0
    for _ in range(40):
        nr, nc, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        if rng.random() < 0.5:
            nc = nr
        m = _planted_product(rng, nr, nc, k)
        rows = [[e * 6 for e in row] if rng.random() < 0.3 else row
                for row in m.rows]
        m = Matrix(nr, nc, rows)
        sm = sympy.Matrix(nr, nc, lambda i, j: sum(
            c * t**e for e, c in enumerate(m[i, j].coeffs)))
        dm = DomainMatrix.from_Matrix(sm).convert_to(ring)
        expected_rank = dm.convert_to(field).rank()
        assert rank(m, RFF) == expected_rank, m
        deficient += expected_rank < min(nr, nc)
        if nr == nc:
            coeffs = sympy.Poly(ring.to_sympy(dm.det()), t).all_coeffs()
            assert det(m) == Poly([int(c) for c in reversed(coeffs)]), m
    assert deficient  # the planted zeros do drop the rank


# irreducible, mostly non-monic moduli, one with a large leading coefficient
_SYMPY_MODULI = ["97*t^3 + 5*t + 3", "1000003*t^2 - 7", "2*t^3 + t + 1",
                 "t^2 + 1", "5*t + 3"]


def test_number_field_rank_matches_sympy():
    """Rank over a number field agrees with sympy's rank over
    ``QQ.algebraic_field`` on A * D * B, where D holds multiples of the
    modulus (so the rank drops at its root) and A and B have entries of
    degree above twice the field degree (so the reduction table grows
    past what products of reduced elements need)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.symbols("t")
    rng = random.Random(8233)
    drops = 0
    for text in _SYMPY_MODULI:
        f = Poly.parse(text)
        field = NumberField(f)
        root = sympy.CRootOf(sum(c * t**e for e, c in enumerate(f.coeffs)), 0)
        dom = sympy.QQ.algebraic_field(root)
        theta = dom.from_sympy(root)

        def at_root(p):
            acc = dom.zero
            for c in reversed(p.coeffs):
                acc = acc * theta + dom.convert(c)
            return acc

        top = 2 * f.degree + 3
        pivots = [Poly.one(), Poly.parse("t - 1"), Poly((3,)), f, f * Poly((2, 1))]
        for _ in range(6):
            nr, nc, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = Matrix(nr, k, [[Poly([rng.randint(-9, 9) for _ in range(top)])
                                for _ in range(k)] for _ in range(nr)])
            d = Matrix(k, k, [[rng.choice(pivots) if i == j else Poly.zero()
                               for j in range(k)] for i in range(k)])
            b = Matrix(k, nc, [[Poly([rng.randint(-9, 9) for _ in range(top)])
                                for _ in range(nc)] for _ in range(k)])
            m = a.mul(d).mul(b)
            expected = DomainMatrix(
                [[at_root(e) for e in row] for row in m.rows], (nr, nc), dom
            ).rank()
            assert rank(m, field) == expected, (text, m)
            drops += expected < rank(m, RFF)
    assert drops  # the planted multiples of the moduli do drop the rank


def test_field_rank_inverts_only_pivots_a_row_below_needs(monkeypatch):
    """An inverse in a number field is an extended Euclid, so a pivot is
    inverted only when some row below it has a nonzero entry in its
    column."""
    calls = []

    def counting(self, _inverse=NumberFieldElement.inverse):
        calls.append(self)
        return _inverse(self)

    monkeypatch.setattr(NumberFieldElement, "inverse", counting)
    field = NumberField(Poly.parse("t^2 - 2"))
    upper = _pmat([["t", "1", "t + 1"], ["0", "0", "3"], ["0", "0", "0"],
                   ["0", "2*t", "t"]])
    assert rank(upper, field) == 3
    assert not calls
    full = _pmat([["t", "1", "2"], ["1", "t", "1"], ["3", "1", "t"]])
    assert rank(full, field) == 3
    assert 1 <= len(calls) <= 2


def test_minor_gcd_takes_no_determinant_at_full_rank(monkeypatch):
    """A 10 x 10 matrix of rank 5 with a nontrivial gcd compresses to an
    upper-triangular 5 x 5 one, so its maximal minors cost no ``det``:
    their gcd is the primitive part of the compression's diagonal
    product (enumerating them takes C(10, 5)^2 = 63,504)."""
    rng = random.Random(2113)
    planted = ["t - 2", "1", "t^2 + 1", "1", "3"]
    a = [[Poly.one() if i == j else Poly.zero() for j in range(5)] for i in range(5)]
    a += [[_random_poly(rng, 2) for _ in range(5)] for _ in range(5)]
    d = [[Poly.parse(planted[i]) if i == j else Poly.zero() for j in range(5)]
         for i in range(5)]
    b = [[Poly.one() if i == j else Poly.zero() for j in range(5)]
         + [_random_poly(rng, 2) for _ in range(5)] for i in range(5)]
    m = Matrix(10, 5, a).mul(Matrix(5, 5, d)).mul(Matrix(5, 10, b))
    calls = []

    def counting(*args, _det=formzeros.matrix.det):
        calls.append(args)
        return _det(*args)

    monkeypatch.setattr(formzeros.matrix, "det", counting)
    assert minor_gcd(m, 5) == Poly.parse("t^3 - 2*t^2 + t - 2")  # (t - 2)(t^2 + 1)
    assert not calls
