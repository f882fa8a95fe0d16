"""Bounded factorisation of integers and integer polynomials.

Integers factor by trial division over the primes below
``_TRIAL_DIVISION_BOUND``, then deterministic Miller-Rabin (``is_prime``)
and Brent's variant of Pollard rho on what is left.  Miller-Rabin
decides only below ``PRIME_CERTIFY_LIMIT``, so a cofactor at or past it
is refused (``PreconditionViolation``) rather than searched; below it,
rho's expected work grows with the fourth root of the cofactor.

Polynomials: only what the pipeline needs, rational-root stripping plus
a Kronecker interpolation search for factors of degree >= 2, both on
plain integers (candidate roots by integer Horner, candidate factors by
a Lagrange basis over one common denominator, with trial division that
stays in Z[t]).  The search is exact and deterministic, but it is a
small-degree tool -- callers
pass a degree cap (8 by default) and a work budget (covering the
rational-root candidates, divisor enumeration and interpolation
candidates), and anything that cannot be certified within those limits
is handed back unresolved rather than guessed at.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import PreconditionViolation
from .poly import Poly, gcd_primitive

DEFAULT_MAX_DEGREE = 8
DEFAULT_BUDGET = 400_000

# Miller-Rabin with the first 13 primes as bases decides primality
# exactly below PRIME_CERTIFY_LIMIT, the least strong pseudoprime to all
# of them (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CERTIFY_LIMIT = 3_317_044_064_679_887_385_961_981

_TRIAL_DIVISION_BOUND = 1000


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return tuple(i for i in range(n) if sieve[i])


_SMALL_PRIMES = _primes_below(_TRIAL_DIVISION_BOUND)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n >= PRIME_CERTIFY_LIMIT,
    where these bases no longer decide."""
    if n < 2:
        return False
    if n >= PRIME_CERTIFY_LIMIT:
        raise PreconditionViolation(
            f"cannot certify whether {n} is prime (certified only below "
            f"{PRIME_CERTIFY_LIMIT})"
        )
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of a composite n with no prime factor below
    ``_TRIAL_DIVISION_BOUND``: Brent's cycle search on x -> x^2 + c from
    2, batching 128 differences per gcd, with c = 1, 2, ... until a run
    does not close on n itself."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _trial_division(n: int) -> tuple[list[int], int]:
    """Trial division of n >= 1 by the primes below
    ``_TRIAL_DIVISION_BOUND``: the prime factors it settles, with
    multiplicity and ascending, and the cofactor left, which is 1 or
    free of those primes and at least the bound's square."""
    found = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            found.append(p)
            n //= p
    if 1 < n < _TRIAL_DIVISION_BOUND ** 2:
        found.append(n)
        n = 1
    return found, n


def _rho_factors(n: int) -> list[int]:
    """The prime factors, with multiplicity and ascending, of a cofactor
    left by ``_trial_division``."""
    found, work = [], [n] if n > 1 else []
    while work:
        m = work.pop()
        if m < _TRIAL_DIVISION_BOUND ** 2 or is_prime(m):
            found.append(m)
        else:
            d = _rho(m)
            work += [d, m // d]
    return sorted(found)


def prime_factors(n: int) -> list[int]:
    """The prime factors of |n|, with multiplicity and ascending (none
    for 0 and +-1).  Raises PreconditionViolation when what trial
    division leaves is at least PRIME_CERTIFY_LIMIT."""
    small, rest = _trial_division(abs(n))
    return small + _rho_factors(rest)


def smallest_prime_factor(n: int) -> int:
    """The least prime dividing n, |n| >= 2; a prime found by trial
    division settles it without factoring the cofactor."""
    n = abs(n)
    if n < 2:
        raise ValueError(f"{n} has no prime factor")
    small, rest = _trial_division(n)
    return small[0] if small else _rho_factors(rest)[0]


def _divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending (none for 0)."""
    if n == 0:
        return []
    divs = [1]
    for p, group in itertools.groupby(prime_factors(n)):
        powers = [p ** e for e in range(1, len(list(group)) + 1)]
        divs += [d * q for d in divs for q in powers]
    return sorted(divs)


def _rational_roots(p: Poly, budget: list[int]) -> list[Fraction]:
    """The rational roots of a nonzero integer polynomial, sorted.

    Each (numerator, denominator) candidate costs one unit of budget[0];
    when that goes negative the search stops and returns the roots found
    so far, which are then not all of them.  A pair in lowest terms,
    x/d with p of degree n, is tested on integers, as d^n * p(x/d) = 0
    by Horner's rule; any other pair is a number an earlier pair
    already tested."""
    roots = []
    k = p.lowest_power()
    if k > 0:
        roots.append(Fraction(0))
        p = Poly(p.coeffs[k:])
    if p.degree < 1:
        return roots
    lead, *rest = reversed(p.coeffs)
    dens = _divisors(p.leading)
    for num in _divisors(p.constant_term):
        for den in dens:
            budget[0] -= 1
            if budget[0] < 0:
                return sorted(roots)
            if gcd(num, den) != 1:
                continue
            for x in (num, -num):
                acc, scale = lead, 1
                for c in rest:
                    scale *= den
                    acc = acc * x + c * scale
                if acc == 0:
                    roots.append(Fraction(x, den))
    return sorted(roots)


def _root_to_linear(r: Fraction) -> Poly:
    """Primitive linear polynomial with root r, positive lead."""
    return Poly((-r.numerator, r.denominator))


def _interpolation_points(count: int) -> list[int]:
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return pts


def _kronecker_factor(
    p: Poly, budget: list[int], max_factor: int | None = None
) -> Poly | None:
    """Search for a nonconstant proper factor of p (primitive, no
    rational roots) of degree at most ``max_factor``.  Returns a factor,
    or None if none was found or the budget ran out (budget[0] goes
    negative in that case).

    A factor g of degree d is fixed by its values at d + 1 points, each
    a divisor of p's value there.  The Lagrange basis of those points
    sits over one common denominator L as integer rows, so a choice of
    values gives integer sums, and it is a candidate only when L
    divides every sum; each choice costs one unit of budget."""
    n = p.degree
    top = n // 2 if max_factor is None else min(n // 2, max_factor)
    for d in range(2, top + 1):
        pts = _interpolation_points(d + 1)
        values = [p.evaluate(x) for x in pts]
        choices = []
        for i, v in enumerate(values):
            # divisor enumeration is trial division up to sqrt(v);
            # charge it to the budget so huge values cannot stall us
            budget[0] -= isqrt(abs(v)) + 1
            if budget[0] < 0:
                return None
            divs = _divisors(v)
            if i == 0:
                # a factor is determined up to sign; pin the first value
                choices.append(divs)
            else:
                choices.append([s * t for t in divs for s in (1, -1)])
        # Lagrange basis over the chosen points, computed once: row i is
        # L * prod_{j != i} (t - x_j) / (x_i - x_j), stored by column
        nums, dens = [], []
        for i, xi in enumerate(pts):
            num = Poly.one()
            den = 1
            for j, xj in enumerate(pts):
                if i != j:
                    num = num * Poly((-xj, 1))
                    den *= xi - xj
            nums.append(num.coeffs)
            dens.append(den)
        lcd = lcm(*dens)
        rows = [[c * (lcd // den) for c in num] for num, den in zip(nums, dens)]
        columns = list(zip(*rows))
        for combo in itertools.product(*choices):
            budget[0] -= 1
            if budget[0] < 0:
                return None
            coeffs = []
            for column in columns:
                s = sum(map(mul, combo, column))
                if s % lcd:
                    break
                coeffs.append(s // lcd)
            else:
                g = Poly(coeffs)
                if g.degree != d:
                    continue
                if p.leading % g.leading or p.constant_term % g.constant_term:
                    continue
                if divmod(p, g)[1].is_zero():
                    return g.primitive()
    return None


def split_squarefree(
    p: Poly,
    max_degree: int = DEFAULT_MAX_DEGREE,
    budget: int = DEFAULT_BUDGET,
) -> tuple[list[Poly], list[Poly]]:
    """Split a primitive square-free integer polynomial into certified
    irreducible factors plus unresolved remainders.

    Returns (irreducible, unresolved); each list holds primitive
    polynomials with positive leading coefficient, sorted by degree and
    then coefficientwise.  Factor degrees up to ``max_degree`` are
    searched, so a remainder is certified irreducible only when that
    covers half its degree; otherwise it lands in ``unresolved``, as
    does anything left when the candidate budget runs out.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    irreducible: list[Poly] = []
    unresolved: list[Poly] = []
    work = [p.primitive()]
    remaining = [budget]
    while work:
        q = work.pop()
        if q.degree < 1:
            continue
        # q is square-free, so each rational root divides it once
        for r in _rational_roots(q, remaining):
            lin = _root_to_linear(r)
            irreducible.append(lin)
            q = q.exact_div(lin).primitive()
        if q.degree < 1:
            continue
        if q.degree == 1:
            irreducible.append(q.primitive())
            continue
        g = _kronecker_factor(q, remaining, max_degree)
        if g is None:
            if remaining[0] < 0 or q.degree // 2 > max_degree:
                unresolved.append(q.primitive())
            else:
                irreducible.append(q.primitive())
        else:
            work.append(g)
            work.append(q.exact_div(g).primitive())
    key = lambda f: (f.degree, f.coeffs)
    return sorted(irreducible, key=key), sorted(unresolved, key=key)


def is_irreducible(
    p: Poly,
    max_degree: int = DEFAULT_MAX_DEGREE,
    budget: int = DEFAULT_BUDGET,
) -> bool | None:
    """Decide irreducibility of a nonconstant integer polynomial.

    Returns True/False when certified, None when a complete search would
    need factor degrees above ``max_degree`` or the budget ran out.
    """
    p = p.primitive()
    if p.degree < 1:
        raise ValueError("irreducibility is for nonconstant polynomials")
    if p.degree == 1:
        return True
    g = gcd_primitive(p, p.derivative())
    if g.degree >= 1:
        return False
    remaining = [budget]
    if _rational_roots(p, remaining):
        return False
    g = _kronecker_factor(p, remaining, max_degree)
    if g is not None:
        return False
    if remaining[0] < 0 or p.degree // 2 > max_degree:
        return None
    return True
