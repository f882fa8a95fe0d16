from __future__ import annotations

import math
import random
import warnings
from fractions import Fraction

import pytest

import formzeros.fields
from formzeros.errors import PreconditionViolation, SchemaError
from formzeros.factor import PRIME_CERTIFY_LIMIT, is_prime, smallest_prime_factor
from formzeros.fields import (
    AlgebraicNumberSpec,
    NumberField,
    PrimeField,
    Rationals,
    RationalFunctionField,
)
from formzeros.matrix import Matrix, rank
from formzeros.poly import Poly


# -- algebraic number specs ------------------------------------------


def test_spec_from_rational():
    a = AlgebraicNumberSpec.from_rational(Fraction(1, 2))
    assert a.is_algebraic
    assert a.value_if_rational() == Fraction(1, 2)
    assert a.primitive_minpoly() == Poly((-1, 2))


def test_spec_transcendental():
    a = AlgebraicNumberSpec.transcendental()
    assert not a.is_algebraic
    with pytest.raises(ValueError):
        a.primitive_minpoly()
    assert a.describe() == "transcendental"


def test_spec_rejects_zero():
    with pytest.raises(SchemaError):
        AlgebraicNumberSpec.parse("int:0")
    with pytest.raises(SchemaError):
        AlgebraicNumberSpec.from_minpoly_text("t")
    # the zero polynomial is no minimal polynomial either
    for text in ("0", "t - t"):
        with pytest.raises(SchemaError, match="must be nonconstant"):
            AlgebraicNumberSpec.from_minpoly_text(text)


def test_spec_rejects_reducible_minpoly():
    with pytest.raises(SchemaError):
        AlgebraicNumberSpec.from_minpoly_text("t^2 - 3*t + 2")


def test_spec_uncertified_minpoly_warns():
    # t^20 - 2 is Eisenstein-irreducible, but certifying that is out of
    # reach for the bounded search, so construction warns and proceeds
    big = Poly((-2,) + (0,) * 19 + (1,))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec = AlgebraicNumberSpec(big)
    assert any("certif" in str(w.message) for w in caught)
    assert spec.primitive_minpoly() == big


def test_spec_catches_small_factor_of_big_minpoly():
    # t^20 + t^19 + 1 is divisible by t^2 + t + 1
    with pytest.raises(SchemaError):
        AlgebraicNumberSpec(Poly((1,) + (0,) * 17 + (0, 1, 1)))


def test_spec_parse_syntax():
    assert AlgebraicNumberSpec.parse("transcendental").minpoly is None
    assert AlgebraicNumberSpec.parse("int:3").value_if_rational() == 3
    assert AlgebraicNumberSpec.parse("rat:-2/5").value_if_rational() == Fraction(-2, 5)
    root = AlgebraicNumberSpec.parse("root:t^2 - t - 1")
    assert root.primitive_minpoly() == Poly((-1, -1, 1))
    with pytest.raises(SchemaError):
        AlgebraicNumberSpec.parse("sqrt:2")


def test_spec_inverse():
    a = AlgebraicNumberSpec.from_rational(Fraction(2, 3))
    assert a.inverse().value_if_rational() == Fraction(3, 2)
    b = AlgebraicNumberSpec.from_minpoly_text("t^2 - t - 1")
    # 1/b is a root of the reversed polynomial
    assert b.inverse().primitive_minpoly() == Poly((-1, 1, 1))


def test_spec_carries_its_primitive_minpoly():
    """The primitive integer minimal polynomial is computed once and
    carried; the reciprocal reverses it, fixing only the sign of its
    lead, and agrees with the reversed monic polynomial; ``describe``
    and the field targets are unchanged by the representation."""
    for text in ("t^2 - t - 1", "-2*t^3 + t - 3", "1/2*t^2 + 1/3*t + 5/6",
                 "3*t - 4", "-t + 7"):
        spec = AlgebraicNumberSpec.from_minpoly_text(text)
        prim = spec.primitive_minpoly()
        assert spec.primitive_minpoly() is prim
        assert all(type(c) is int for c in prim.coeffs) and prim.leading > 0
        monic = Poly.parse(text, allow_fractions=True).monic()
        assert spec.minpoly == monic
        inv = spec.inverse()
        assert inv.minpoly == monic.reversal().monic()
        assert inv.primitive_minpoly() == monic.reversal().clear_denominators().primitive()
        assert inv.inverse() == spec and hash(inv.inverse()) == hash(spec)
        assert spec.field_target() == NumberField(monic)
        assert spec.field_target(invert=True) == NumberField(monic.reversal().monic())
    assert AlgebraicNumberSpec.from_minpoly_text("-3*t + 4").describe() == "rational 4/3"
    assert AlgebraicNumberSpec.from_minpoly_text("2*t^2 - 3").describe() == "root of 2*t^2 - 3"


def test_spec_inverse_inherits_certification(monkeypatch):
    """The reversal of an irreducible polynomial with nonzero constant
    term is irreducible, so the reciprocal is not certified again."""
    b = AlgebraicNumberSpec.from_minpoly_text("2*t^3 + t + 1")

    def refuse(*args, **kwargs):
        raise AssertionError("reciprocal re-certified")

    monkeypatch.setattr(formzeros.fields, "is_irreducible", refuse)
    assert b.inverse().primitive_minpoly() == Poly((1, 1, 0, 2)).reversal()
    assert b.inverse().inverse() == b
    assert AlgebraicNumberSpec.transcendental().inverse().minpoly is None


def test_is_prime_agrees_with_smallest_prime_factor():
    primes = [n for n in range(-5, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert all(smallest_prime_factor(n) == n for n in primes)
    assert smallest_prime_factor(91) == 7 and not is_prime(91)


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,  # ... to every prime base up to 23
    318665857834031151167461,  # ... to every prime base up to 37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**61 - 1, 10**18 + 3, 10**18 + 9])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)
    assert not is_prime(n * 3)


def test_is_prime_refuses_past_the_certified_range():
    assert not is_prime(PRIME_CERTIFY_LIMIT - 1)  # even, in range
    with pytest.raises(PreconditionViolation, match="cannot certify"):
        is_prime(2**89 - 1)
    with pytest.raises(PreconditionViolation):
        PrimeField(PRIME_CERTIFY_LIMIT)


# -- field targets ----------------------------------------------------


def test_number_field_reduction():
    f = NumberField(Poly((1, -1, 1)))  # t^2 = t - 1
    t = f.reduce(Poly((0, 1)))
    one = f.reduce(Poly.one())
    assert (t * t).coeffs == (t - one).coeffs
    # the cube is -1: t^3 = t*t^2 = t(t-1) = t^2 - t = -1
    assert (t * t * t).coeffs == (f.reduce(Poly.zero()) - one).coeffs == (-1, 0)


def test_number_field_inverse_round_trip():
    rng = random.Random(9)
    f = NumberField(Poly((-1, -1, 0, 1)))  # t^3 - t - 1, irreducible
    one = f.reduce(Poly.one())
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        x = f.reduce(Poly(coeffs))
        if not x:
            continue
        assert (x * x.inverse()).coeffs == one.coeffs
        assert (x * (one * x.inverse())).coeffs == one.coeffs


def test_number_field_reducible_modulus_detected_on_division():
    # t^3 - t^2 + 2 = (t + 1)(t^2 - 2t + 2); zero divisors have no inverse
    f = NumberField(Poly((2, 0, -1, 1)))
    zero_divisor = f.reduce(Poly((1, 1)))
    with pytest.raises(ZeroDivisionError):
        zero_divisor.inverse()


def test_number_field_reducible_non_monic_modulus_detected_on_division():
    # 6t^3 + 3t^2 + 2t + 1 = (2t + 1)(3t^2 + 1)
    f = NumberField(Poly((1, 2, 3, 6)))
    for factor in (Poly((1, 2)), Poly((1, 0, 3)), Poly((3, 6, 3, 6))):
        with pytest.raises(ZeroDivisionError):
            f.reduce(factor).inverse()
    t = f.reduce(Poly((0, 1)))  # coprime to both factors
    assert (t * t.inverse()).coeffs == (1, 0, 0)


def _eisenstein_modulus(data, st) -> Poly:
    """A modulus of degree 1-4 with a leading coefficient up to 10^6,
    irreducible by Eisenstein's criterion at a small prime p."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    k = data.draw(st.integers(1, 4))
    lead = data.draw(st.integers(-10**6, 10**6).filter(lambda c: c % p))
    middle = [p * data.draw(st.integers(-20, 20)) for _ in range(k - 1)]
    constant = p * data.draw(st.integers(-20, 20).filter(lambda c: c % p))
    return Poly([constant, *middle, lead])


def _element(data, st, field: NumberField, top: int):
    """An element reduced from a rational polynomial of degree below
    ``top``, and that polynomial."""
    pairs = data.draw(st.lists(
        st.tuples(st.integers(-10**6, 10**6), st.integers(1, 60)), max_size=top))
    p = Poly([Fraction(a, b) for a, b in pairs])
    return field.reduce(p), p


def _lowest_terms(x) -> bool:
    return x.den > 0 and math.gcd(x.den, *x.num) == 1


def test_number_field_arithmetic_matches_polynomial_remainders():
    """Reduction, ``*``, ``-`` and ``inverse`` on non-monic moduli agree
    with ``Poly`` remainders modulo the monic modulus, keep every element
    in lowest terms, and x * inverse(x) is one."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        field = NumberField(_eisenstein_modulus(data, st))
        k, m = field.degree, field.modulus
        x, px = _element(data, st, field, 2 * k + 3)
        y, py = _element(data, st, field, 2 * k + 3)

        def rem(p):
            r = divmod(p, m)[1].coeffs
            return r + (0,) * (k - len(r))

        assert x.coeffs == rem(px) and y.coeffs == rem(py)
        assert (x * y).coeffs == rem(px * py)
        assert (x - y).coeffs == rem(px - py)
        results = [x, y, x * y, x - y]
        if x:
            inv = x.inverse()
            assert (x * inv).coeffs == field.reduce(Poly.one()).coeffs
            results.append(inv)
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        assert all(_lowest_terms(z) for z in results)

    check()


def test_number_field_degree_one_is_evaluation():
    f = NumberField(Poly((-2, 1)))  # t = 2
    assert f.reduce(Poly((1, 1, 1))).coeffs == (Fraction(7),)
    assert "t = 2" in f.describe()


def test_number_field_normalises_to_monic():
    f = NumberField(Poly((1, 2)))  # 2t + 1 -> t + 1/2, i.e. t = -1/2
    assert f.reduce(Poly((0, 2))).coeffs == (Fraction(-1),)
    with pytest.raises(ValueError):
        NumberField(Poly((3,)))


def test_rationals_sets_variable_to_zero():
    f = Rationals()
    assert rank(Matrix(1, 1, [[Poly((5, 7, 1))]]), f) == 1
    assert rank(Matrix(1, 1, [[Poly((0, 7, 1))]]), f) == 0


@pytest.mark.parametrize("make", [
    lambda: (NumberField(Poly((1, -1, 1))), NumberField(Poly((-2, 0, 1)))),
], ids=["number-field"])
def test_elements_implement_only_the_elimination_contract(make):
    f, other = make()
    x, y = f.reduce(Poly((2, 1))), f.reduce(Poly((3,)))
    assert (x * y - y) and not (x - x)
    for op in (lambda: x + y, lambda: -x, lambda: x / y, lambda: x * 2,
               lambda: 2 * x, lambda: x - 1, lambda: 1 - x):
        with pytest.raises(TypeError):
            op()
    # equality is identity, never a value comparison
    assert x == x and x != f.reduce(Poly((2, 1)))
    with pytest.raises(ValueError):
        x * other.reduce(Poly((2, 1)))


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_field_target_for_spec():
    a = AlgebraicNumberSpec.from_rational(Fraction(1, 2))
    direct = a.field_target(invert=False)
    inv = a.field_target(invert=True)
    # direct target evaluates at 1/2, inverted at 2
    assert direct.reduce(Poly((0, 1))).coeffs == (Fraction(1, 2),)
    assert inv.reduce(Poly((0, 1))).coeffs == (Fraction(2),)


def test_field_target_transcendental_is_generic():
    a = AlgebraicNumberSpec.transcendental()
    assert isinstance(a.field_target(invert=True), RationalFunctionField)
