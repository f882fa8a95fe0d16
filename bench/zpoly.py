"""Integer polynomials as coefficient tuples, for input generation and oracles.

The benchmark must not judge formzeros with formzeros, so it carries
this small independent toolkit.  A polynomial is a tuple of
coefficients in ascending powers of t with no trailing zeros; the zero
polynomial is ``()``.  Coefficients are ints, or Fractions where a
monic form over Q is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction


def norm(coeffs) -> tuple:
    out = [int(c) if type(c) is Fraction and c.denominator == 1 else c for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return norm(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def neg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def sub(a: tuple, b: tuple) -> tuple:
    return add(a, neg(b))


def mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return norm(out)


def degree(a: tuple) -> int:
    return len(a) - 1


def evaluate(a: tuple, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def content(a: tuple) -> int:
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return g


def primitive(a: tuple) -> tuple:
    """Content 1 and positive leading coefficient."""
    if not a:
        return a
    g = content(a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a)


def reversal(a: tuple) -> tuple:
    """t^deg * a(1/t); callers pass polynomials with nonzero constant term."""
    return norm(reversed(a))


def monic(a: tuple) -> tuple:
    lead = Fraction(a[-1])
    return norm(Fraction(c) / lead for c in a)


def divisors(n: int) -> list[int]:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def has_rational_root(a: tuple) -> bool:
    if a[0] == 0:
        return True
    for num in divisors(a[0]):
        for den in divisors(a[-1]):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if evaluate(a, cand) == 0:
                    return True
    return False


def is_irreducible_low(a: tuple) -> bool:
    """Irreducibility over Q for degree 1 to 3: no rational root."""
    if not 1 <= degree(a) <= 3:
        raise ValueError("only degrees 1 to 3 are decided here")
    return degree(a) == 1 or not has_rational_root(a)


def fmt(a: tuple, var: str = "t") -> str:
    """Canonical text: descending powers, ``c*t^k``, unit coefficients
    suppressed, ``0`` for the zero polynomial."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = var if k == 1 else f"{var}^{k}"
        else:
            body = f"{mag}*{var}" if k == 1 else f"{mag}*{var}^{k}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def divides_root(f: tuple, m: tuple) -> bool:
    """Whether the irreducible primitive m divides f over Q."""
    if degree(f) < degree(m) or degree(m) < 1:
        return False
    rem = [Fraction(c) for c in f]
    lead = Fraction(m[-1])
    dm = degree(m)
    for i in range(len(rem) - 1, dm - 1, -1):
        q = rem[i] / lead
        if q:
            for j, c in enumerate(m):
                rem[i - dm + j] -= q * c
    return not any(rem[:dm])


def smallest_prime_factor(n: int) -> int:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def alternating_witness(p: tuple, q: tuple):
    """Divisibility order oracle: ``p - q = (1 + t) * w`` with w >= 0.

    The witness is the sequence of alternating partial sums of p - q;
    it exists exactly when the last one vanishes.  Returns
    ``(holds, w)`` with ``w`` None when the order fails.
    """
    w, s = [], 0
    for i in range(max(len(p), len(q))):
        s = (p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) - s
        w.append(s)
    if w and w[-1] != 0:
        return False, None
    w = w[:-1]
    while w and w[-1] == 0:
        w.pop()
    if any(c < 0 for c in w):
        return False, None
    return True, tuple(w)
