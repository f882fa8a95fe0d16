"""Exercises for the exact univariate polynomial layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from formzeros.errors import PolynomialParseError
from formzeros.poly import Poly, gcd_primitive, radical


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


def test_shift_and_lowest_power():
    assert Poly((1, 1)).shift(2) == Poly((0, 0, 1, 1))
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
