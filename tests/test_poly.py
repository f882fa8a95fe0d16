"""Exercises for the exact univariate polynomial layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from formzeros.errors import PolynomialParseError
from formzeros.poly import MAX_EXPONENT, Poly, gcd_primitive, radical


def test_zero_normalisation():
    assert Poly((0, 0, 0)) == Poly.zero()
    assert Poly.zero().degree == -1
    assert Poly.zero().coeffs == ()


def test_trailing_zeros_trimmed():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)


def test_integral_fractions_collapse():
    p = Poly((Fraction(4, 2), Fraction(1, 3)))
    assert p.coeffs == (2, Fraction(1, 3)) and type(p.coeffs[0]) is int
    assert isinstance(p.coeffs[0], int)


def test_parse_round_trip():
    cases = [
        "t^3 - 2*t + 5",
        "-t^2 + t",
        "7",
        "0",
        "t",
        "2*t^2 - t + 1",
    ]
    for text in cases:
        p = Poly.parse(text)
        assert Poly.parse(p.format()) == p


def test_parse_fraction_coefficients():
    p = Poly.parse("1/2*t - 3/4", allow_fractions=True)
    assert p.coeffs == (Fraction(-3, 4), Fraction(1, 2))
    with pytest.raises(PolynomialParseError):
        Poly.parse("1/2*t - 3/4")
    # a Fraction only where a p/q term leaves one
    p = Poly.parse("1/2*t^2 + 3*t - 2/3", allow_fractions=True)
    assert [type(c) for c in p.coeffs] == [Fraction, int, Fraction]
    q = Poly.parse("1/2*t + 1/2*t + 4/2", allow_fractions=True)
    assert q.coeffs == (2, 1) and all(type(c) is int for c in q.coeffs)


def test_parse_garbage_rejected():
    for bad in ["t^-1", "x + 1", "t t", "", "+", "2**t"]:
        with pytest.raises(PolynomialParseError):
            Poly.parse(bad)


def test_arithmetic_ring_laws():
    rng = random.Random(71)
    for _ in range(60):
        a, b, c = (
            Poly([rng.randint(-5, 5) for _ in range(rng.randint(0, 5))])
            for _ in range(3)
        )
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly.zero()


def test_mul_degree_additive():
    a = Poly((1, 2, 3))
    b = Poly((0, -1, 0, 4))
    assert (a * b).degree == a.degree + b.degree


def test_divmod_exact_and_remainder():
    num = Poly((1, 0, 1)) * Poly((2, 1)) + Poly((5,))
    q, r = divmod(num, Poly((2, 1)))
    assert q * Poly((2, 1)) + r == num
    assert r == Poly((5,))


def test_exact_div_raises_on_remainder():
    with pytest.raises(ArithmeticError):
        Poly((1, 1, 1)).exact_div(Poly((1, 1)))
    assert Poly((1, 2, 1)).exact_div(Poly((1, 1))) == Poly((1, 1))


def test_content_primitive():
    p = Poly((6, -9, 12))
    assert p.content() == 3
    assert p.primitive() == Poly((2, -3, 4))
    # primitive part has a positive leading coefficient
    assert Poly((-2, 0, -4)).primitive() == Poly((1, 0, 2))


def test_content_multiplicative():
    """content(p*q) == content(p) * content(q) over the integers."""
    rng = random.Random(1009)
    for _ in range(80):
        p = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        q = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        if p.degree < 0 or q.degree < 0:
            continue
        assert (p * q).content() == p.content() * q.content()


def test_evaluate_horner():
    p = Poly((1, -2, 3))
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)
    assert p.evaluate(0) == 1
    assert p.evaluate(2) == 9


def test_reversal():
    # t^2 - t + 1 is its own reversal
    p = Poly((1, -1, 1))
    assert p.reversal() == p
    assert Poly((2, 1)).reversal() == Poly((1, 2))


def test_strip_powers():
    k, q = Poly((0, 0, 3, 1)).strip_powers()
    assert k == 2 and q == Poly((3, 1))
    assert Poly.zero().strip_powers() == (0, Poly.zero())


def test_lowest_power():
    assert Poly((0, 0, 5)).lowest_power() == 2


def test_monic():
    p = Poly((2, 0, 4)).monic()
    assert p.coeffs == (Fraction(1, 2), 0, 1)


def test_derivative():
    assert Poly((7, 3, 0, 2)).derivative() == Poly((3, 0, 6))
    assert Poly((9,)).derivative() == Poly.zero()


def test_gcd_primitive():
    a = Poly((1, -1, 1)) * Poly((1, 1))
    b = Poly((1, -1, 1)) * Poly((-2, 0, 1))
    assert gcd_primitive(a, b) == Poly((1, -1, 1))
    assert gcd_primitive(a, Poly.zero()) == a.primitive()
    assert gcd_primitive(Poly.zero(), Poly.zero()) == Poly.zero()


def test_gcd_primitive_coprime():
    assert gcd_primitive(Poly((1, 1)), Poly((-1, 1))) == Poly.one()


def test_radical_strips_multiplicity():
    p = Poly((1, 1)) ** 3 * Poly((-2, 1))
    assert radical(p) == Poly((1, 1)) * Poly((-2, 1))
    assert radical(Poly((5,))) == Poly.one()


def test_format_descending():
    assert Poly((1, -1, 2)).format() == "2*t^2 - t + 1"
    assert Poly((0, 1)).format() == "t"
    assert Poly((0, -1)).format() == "-t"
    assert Poly.zero().format() == "0"


def test_pow():
    assert Poly((1, 1)) ** 0 == Poly.one()
    assert Poly((1, 1)) ** 2 == Poly((1, 2, 1))


# -- integer kernels against the Fraction route they replace -------------


def _divmod_by_fractions(a: Poly, b: Poly):
    """Long division with every step in ``Fraction`` arithmetic."""
    d = b.degree
    rem = [Fraction(c) for c in a.coeffs]
    q = [Fraction(0)] * max(0, len(rem) - d)
    lead = Fraction(b.leading)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] / lead
        if c:
            q[i - d] = c
            for j, v in enumerate(b.coeffs, i - d):
                rem[j] -= c * v
    return Poly(q), Poly(rem)


def _gcd_by_fraction_euclid(a: Poly, b: Poly) -> Poly:
    """Euclid over Q with ``Fraction`` remainders, then the primitive
    integer multiple with positive lead."""
    while not b.is_zero():
        a, b = b, _divmod_by_fractions(a, b)[1]
    return a.clear_denominators().primitive()


def _sympy_primitive(expr, t) -> Poly:
    """A sympy polynomial as the primitive integer Poly with positive
    lead (zero stays zero)."""
    sympy = pytest.importorskip("sympy")
    coeffs = [sympy.Rational(c) for c in reversed(sympy.Poly(expr, t).all_coeffs())]
    p = Poly([Fraction(int(c.p), int(c.q)) for c in coeffs])
    return p.clear_denominators().primitive()


def _as_sympy(p: Poly, t):
    sympy = pytest.importorskip("sympy")
    return sum(sympy.Rational(c.numerator, c.denominator) * t**k
               for k, c in enumerate(p.coeffs))


def test_gcd_and_radical_match_sympy_and_fraction_euclid():
    """gcd_primitive and radical against sympy and the ``Fraction``
    Euclid: pairs g*u, g*v with a shared factor, scaled by a content of
    either sign (zero included), so the inputs cover zero, constants,
    negative leads, nontrivial content and non-monic leads up to degree
    12."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    t = sympy.symbols("t")
    small = st.lists(st.integers(-6, 6), max_size=5).map(Poly)
    scale = st.integers(-12, 12)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(small, small, small, scale, scale)
    def check(g, u, v, ca, cb):
        a, b = ca * g * u, cb * g * v
        ours = gcd_primitive(a, b)
        assert ours == _gcd_by_fraction_euclid(a, b)
        assert ours == _sympy_primitive(sympy.gcd(_as_sympy(a, t), _as_sympy(b, t)), t)
        assert all(type(c) is int for c in ours.coeffs)
        if a.degree >= 1:
            sq = radical(a)
            assert sq == _sympy_primitive(sympy.sqf_part(_as_sympy(a, t)), t)
            assert all(type(c) is int for c in sq.coeffs)

    check()


def test_gcd_of_coprime_and_rational_inputs():
    """Random pairs up to degree 12 are almost always coprime; rational
    inputs are scaled to integers first, which leaves the gcd alone."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    t = sympy.symbols("t")
    dense = st.lists(st.integers(-30, 30), min_size=1, max_size=13).map(Poly)
    small = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(Poly)
    dens = st.integers(1, 9)

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(dense, dense, small, dens, dens)
    def check(a, b, g, da, db):
        assert gcd_primitive(a, b) == _gcd_by_fraction_euclid(a, b)
        ra = Poly([Fraction(c, da) for c in (a * g).coeffs])
        rb = Poly([Fraction(c, db) for c in (b * g).coeffs])
        ours = gcd_primitive(ra, rb)
        assert ours == _gcd_by_fraction_euclid(ra, rb)
        assert ours == _sympy_primitive(sympy.gcd(_as_sympy(ra, t), _as_sympy(rb, t)), t)

    check()
    assert gcd_primitive(Poly((1, 0, 0, 1)) ** 4, Poly((-1, 1)) ** 5) == Poly.one()
    half = Poly((Fraction(-1, 2), 0, Fraction(1, 2)))  # (t^2 - 1) / 2
    assert gcd_primitive(half, Poly.zero()) == Poly((-1, 0, 1))
    assert gcd_primitive(half, Poly((Fraction(1, 3), Fraction(1, 3)))) == Poly((1, 1))


def test_divmod_non_unit_lead_matches_fractions():
    """Division by divisors with a leading coefficient other than +-1,
    exact and inexact, integer and rational, agrees with long division
    in ``Fraction``s; an exact integer division keeps int coefficients."""
    rng = random.Random(2357)
    for _ in range(300):
        b = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.choice((2, -3, 4, 6, -5))])
        q0 = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        r0 = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, b.degree))])
        for a in (q0 * b, q0 * b + r0, Poly([Fraction(c, 3) for c in (q0 * b).coeffs])):
            ours = divmod(a, b)
            assert ours == _divmod_by_fractions(a, b), (a, b)
            assert ours[0] * b + ours[1] == a
        q, r = divmod(q0 * b, b)
        assert q == q0 and r.is_zero()
        assert all(type(c) is int for c in q.coeffs)
    frac_lead = Poly((1, Fraction(3, 2)))
    a = Poly((2, 1, 3, Fraction(9, 4)))
    assert divmod(a, frac_lead) == _divmod_by_fractions(a, frac_lead)


# -- parsing --------------------------------------------------------------


def test_parse_gives_int_coefficients():
    p = Poly.parse("3*t^3 - 2*t + t - 7 + 2")
    assert p.coeffs == (-5, -1, 0, 3)
    assert all(type(c) is int for c in p.coeffs)
    assert p == Poly((-5, -1, 0, 3)) and hash(p) == hash(Poly((-5, -1, 0, 3)))
    assert Poly.parse("t - t").coeffs == ()
    # integer text under allow_fractions stays int as well
    q = Poly.parse("2*t^2 + 4", allow_fractions=True)
    assert all(type(c) is int for c in q.coeffs)
    assert Poly.parse(f"t^{MAX_EXPONENT} - 1").degree == MAX_EXPONENT


@pytest.mark.parametrize("text, allow, message", [
    ("1/0", True, "zero denominator in '1/0'"),
    ("t + 1/0*t^2", True, "zero denominator in '1/0'"),
    ("1/2", False, "fractional coefficient '1/2' not allowed here"),
    ("t^2 + 3/4", False, "fractional coefficient '3/4' not allowed here"),
    ("2*t 1", False, "missing +/- between terms in '2*t 1' at position 4"),
    ("t t", False, "missing +/- between terms in 't t' at position 2"),
    ("", False, "empty polynomial string"),
    ("   ", True, "empty polynomial string"),
    ("+", False, "cannot parse polynomial '+' at position 0"),
    # refused before the dense coefficient list of 10^10 entries is built
    ("t^10000000000", False, "exponent above 100000 in polynomial 't^10000000000'..."),
    ("2*t^100001 + 1", True, "exponent above 100000 in polynomial '2*t^100001 + 1'..."),
])
def test_parse_error_messages(text, allow, message):
    with pytest.raises(PolynomialParseError) as info:
        Poly.parse(text, allow_fractions=allow)
    assert str(info.value) == message
