from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from formzeros.errors import PreconditionViolation
from formzeros.factor import (
    PRIME_CERTIFY_LIMIT,
    _divisors,
    _interpolation_points,
    _kronecker_factor,
    _rational_roots,
    is_irreducible,
    prime_factors,
    smallest_prime_factor,
    split_squarefree,
)
from formzeros.poly import Poly, radical


def test_splits_product_of_quadratics():
    p = Poly((1, 0, 1, 0, 1))  # t^4 + t^2 + 1
    irr, unresolved = split_squarefree(p)
    assert unresolved == []
    assert sorted(f.format() for f in irr) == ["t^2 + t + 1", "t^2 - t + 1"]


def test_rational_roots_stripped_first():
    p = Poly((1, -5, 6))  # (2t-1)(3t-1)
    irr, unresolved = split_squarefree(p)
    assert unresolved == []
    assert set(f.coeffs for f in irr) == {(-1, 2), (-1, 3)}


def test_irreducible_stays_whole():
    p = Poly((1, -1, 1))
    irr, unresolved = split_squarefree(p)
    assert irr == [p] and unresolved == []


def test_degree_cap_splits_small_factors_only():
    # t^8 + t + 1 = (t^2 + t + 1)(t^6 - t^5 + t^3 - t^2 + 1); with the
    # factor search capped at degree 2 the quadratic is still split off
    # but the sextic cannot be certified (that needs degree 3).
    p = Poly((1, 1) + (0,) * 6 + (1,))
    irr, unresolved = split_squarefree(p, max_degree=2)
    assert irr == [Poly((1, 1, 1))]
    assert unresolved == [Poly((1, 0, -1, 1, 0, -1, 1))]
    # a wider cap resolves everything
    irr4, un4 = split_squarefree(p, max_degree=4)
    assert un4 == [] and [f.degree for f in irr4] == [2, 6]


def test_is_irreducible_verdicts():
    assert is_irreducible(Poly((1, -1, 1))) is True
    assert is_irreducible(Poly((1, 0, 1, 0, 1))) is False
    assert is_irreducible(Poly((1, 1))) is True
    # squares are reducible without any search
    assert is_irreducible(Poly((1, 2, 1))) is False


def test_is_irreducible_uncertified_above_cap():
    sextic = Poly((1, 0, -1, 1, 0, -1, 1))
    assert is_irreducible(sextic, max_degree=2) is None
    assert is_irreducible(sextic, max_degree=3) is True


def test_rational_root_candidates_spend_the_budget():
    """963761198400 has 6720 divisors, so this quadratic has about
    4.5 * 10^7 (numerator, denominator) candidates; a spent budget
    leaves it unresolved instead of searching them all.  The roots it
    did find stay certified."""
    p = Poly.parse("963761198400*t^2 + t + 963761198400")
    assert is_irreducible(p, budget=1000) is None
    assert split_squarefree(p, budget=1000) == ([], [p])
    q = Poly.parse("t - 1") * p
    assert is_irreducible(q, budget=1000) is False
    assert split_squarefree(q, budget=1000) == ([Poly.parse("t - 1")], [p])


def _rational_roots_by_evaluation(p: Poly, budget: list) -> list:
    """Every (numerator, denominator) pair, tested by evaluating p at
    both signs of the ``Fraction``; one unit of budget per pair."""
    roots = []
    k = p.lowest_power()
    if k > 0:
        roots.append(Fraction(0))
        p = Poly(p.coeffs[k:])
    if p.degree < 1:
        return roots
    for num in _divisors(p.constant_term):
        for den in _divisors(p.leading):
            budget[0] -= 1
            if budget[0] < 0:
                return sorted(roots)
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in roots and p.evaluate(cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def test_rational_roots_match_evaluation_and_spend_alike():
    """The integer test of each candidate finds the roots that
    evaluating at a ``Fraction`` finds, and leaves the same budget, on
    products of linear factors (some repeated or sharing a root's
    numerator or denominator) and an irreducible cofactor, with budgets
    that run out part way."""
    rng = random.Random(5407)
    linear = [Poly((-b, a)) for a in (1, 2, 3, 4, 6) for b in (-6, -3, -2, -1, 1, 2, 4)]
    for _ in range(60):
        p = Poly.parse(rng.choice(["1", "t^2 + 1", "3*t^2 - 2", "t"]))
        for _ in range(rng.randint(0, 3)):
            p = p * rng.choice(linear)
        for budget in (5, 40, 10**6):
            ours, theirs = [budget], [budget]
            assert _rational_roots(p, ours) == _rational_roots_by_evaluation(p, theirs), p
            assert ours == theirs


def _kronecker_by_fractions(p: Poly, budget: list, max_factor=None):
    """The Kronecker search with its Lagrange basis in ``Fraction``s and
    the candidate test on their denominators, charging the budget as
    ``_kronecker_factor`` does."""
    n = p.degree
    top = n // 2 if max_factor is None else min(n // 2, max_factor)
    for d in range(2, top + 1):
        pts = _interpolation_points(d + 1)
        choices = []
        for i, v in enumerate(p.evaluate(x) for x in pts):
            budget[0] -= isqrt(abs(v)) + 1
            if budget[0] < 0:
                return None
            divs = _divisors(v)
            choices.append(divs if i == 0 else [s * t for t in divs for s in (1, -1)])
        basis = []
        for i, xi in enumerate(pts):
            num, den = Poly.one(), 1
            for j, xj in enumerate(pts):
                if i != j:
                    num = num * Poly((-xj, 1))
                    den *= xi - xj
            basis.append([Fraction(c, den) for c in num.coeffs])
        for combo in itertools.product(*choices):
            budget[0] -= 1
            if budget[0] < 0:
                return None
            coeffs = [Fraction(0)] * (d + 1)
            for v, b in zip(combo, basis):
                for k, c in enumerate(b):
                    coeffs[k] += v * c
            if any(c.denominator != 1 for c in coeffs):
                continue
            g = Poly(coeffs)
            if g.degree != d:
                continue
            if p.leading % g.leading or p.constant_term % g.constant_term:
                continue
            if divmod(p, g)[1].is_zero():
                return g.primitive()
    return None


def test_kronecker_factor_matches_fraction_search_and_spends_alike():
    """The integer Lagrange basis over one common denominator finds the
    factor the ``Fraction`` basis finds (or neither finds one) and
    leaves the same budget, on products of irreducibles with no rational
    root, non-monic ones included, and on irreducibles, with budgets
    that run out part way."""
    rng = random.Random(6211)
    pool = [Poly.parse(s) for s in (
        "t^2 + 1", "t^2 + t + 1", "t^2 - t + 1", "3*t^2 - 2", "2*t^2 + 3",
        "5*t^2 + t + 2", "t^3 - 2", "2*t^3 + t + 1", "t^3 - t - 1",
    )]
    cases = [Poly.parse(s) for s in ("t^4 + 1", "t^4 - 10*t^2 + 1", "3*t^4 + t + 1")]
    for _ in range(30):
        p = Poly.one()
        for f in rng.sample(pool, 2):
            p = p * f
        cases.append(p)
    for p in cases:
        for max_factor in (None, 2):
            for budget in (5, 40, 10**6):
                ours, theirs = [budget], [budget]
                assert (_kronecker_factor(p, ours, max_factor)
                        == _kronecker_by_fractions(p, theirs, max_factor)), p
                assert ours == theirs, p


def test_random_products_recovered():
    """Multiply certified-irreducible pieces, then recover the set."""
    rng = random.Random(404)
    pool = [
        Poly((1, 1)),
        Poly((-1, 1)),
        Poly((1, -1, 1)),
        Poly((1, 1, 1)),
        Poly((3, 0, 1)),
        Poly((-2, 0, 0, 1)),
        Poly((1, 0, -1, 1)),
    ]
    for _ in range(25):
        picks = rng.sample(pool, rng.randint(1, 3))
        prod = Poly.one()
        for f in picks:
            prod = prod * f
        prod = radical(prod)  # the splitter expects square-free input
        irr, unresolved = split_squarefree(prod)
        assert unresolved == []
        assert sorted(f.coeffs for f in irr) == sorted(f.coeffs for f in set(picks))


# -- integers ----------------------------------------------------------


def _divisors_by_trial(n):
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def test_divisors_match_trial_division():
    for n in itertools.chain(range(-50, 2000), [2**10 * 3**4, 1009**2, 997 * 1009]):
        assert _divisors(n) == _divisors_by_trial(n), n


@pytest.mark.parametrize("primes", [
    [2, 2, 3, 997],
    [1009, 1013],  # the least product trial division cannot split
    [10**9 + 7] * 2,
    [100000007] * 3,
    [1099511640127, 2199023255531],  # two 41-bit primes, near the limit
    [3, 1000000000000000003],
])
def test_prime_factors_by_rho(primes):
    n = 1
    for p in primes:
        n *= p
    assert n < PRIME_CERTIFY_LIMIT
    assert prime_factors(n) == primes


def test_prime_factors_of_units_zero_and_negatives():
    assert prime_factors(0) == prime_factors(1) == prime_factors(-1) == []
    assert prime_factors(-1009 * 1013) == [1009, 1013]
    assert smallest_prime_factor(-1013 * 1009) == 1009
    with pytest.raises(ValueError):
        smallest_prime_factor(1)


def test_cofactor_past_the_certified_range():
    """A cofactor Miller-Rabin cannot decide is refused, unless trial
    division has already found the least prime."""
    big = 2**89 - 1  # prime, past PRIME_CERTIFY_LIMIT
    with pytest.raises(PreconditionViolation, match="cannot certify"):
        prime_factors(big)
    with pytest.raises(PreconditionViolation):
        smallest_prime_factor(big)
    with pytest.raises(PreconditionViolation):
        prime_factors(6 * big)
    assert smallest_prime_factor(6 * big) == 2
