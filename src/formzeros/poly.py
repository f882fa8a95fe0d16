"""Dense univariate polynomials with exact coefficients.

A Poly stores its coefficients in ascending order of the power of the
indeterminate, with no trailing zeros: the zero polynomial has an empty
coefficient tuple.  Coefficients are Python ints or Fractions; a
Fraction that happens to be integral is normalised to int, so an
integer polynomial always has plain int coefficients and equality is
structural.  All arithmetic is exact -- no floats enter anywhere.

The pipeline's polynomials are integer ones, and the kernels keep them
on plain ints: parsing, ``divmod`` while the divisor's leading
coefficient divides each leading term, and ``gcd_primitive`` and
``radical``, which run a primitive pseudo-remainder sequence.  A
``Fraction`` appears only where the value is not an integer: a ``p/q``
term parsed under ``allow_fractions``, ``monic``, a ``divmod`` step the
divisor's leading coefficient does not divide (from that step on), and
evaluation at a ``Fraction``.

The canonical text form writes terms in descending powers over the
indeterminate ``t`` with a ``*`` between coefficient and power and unit
coefficients suppressed::

    >>> p = Poly.parse("2*t^2 - t + 1")
    >>> p * Poly.parse("t + 1")
    Poly('2*t^3 + t^2 + 1')
    >>> Poly.parse("t^2-t+1") * Poly.parse("t+1")
    Poly('t^3 + 1')

The parser accepts arbitrary whitespace and term order and, when
``allow_fractions`` is set (used for minimal polynomials), ``p/q``
coefficients.  It refuses an exponent above ``MAX_EXPONENT``, as the
dense coefficient list it builds has one entry per power.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import PolynomialParseError

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+(?:\s*/\s*\d+)?)\s*(?:\*\s*(?P<var1>t)(?:\s*\^\s*(?P<exp1>\d+))?)?
          | (?P<var2>t)(?:\s*\^\s*(?P<exp2>\d+))?
        )\s*""",
    re.VERBOSE,
)

# Largest exponent ``Poly.parse`` accepts.
MAX_EXPONENT = 100_000


def _parse_int(digits: str, text: str) -> int:
    """``int(digits)``, with a number past the interpreter's digit limit
    reported as a parse error of ``text``."""
    try:
        return int(digits)
    except ValueError:
        raise PolynomialParseError(
            f"number too long in polynomial {text[:20]!r}..."
        ) from None


class Poly:
    """An exact dense polynomial in one indeterminate."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # ``type(c) is Fraction`` rather than isinstance: Fraction is a
        # ``numbers`` ABC, so isinstance goes through ABCMeta on every
        # coefficient of every Poly built.
        coeffs = [
            int(c) if type(c) is Fraction and c.denominator == 1 else c
            for c in coeffs
        ]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, c, k: int) -> "Poly":
        return cls((0,) * k + (c,))

    @classmethod
    def parse(cls, text: str, allow_fractions: bool = False) -> "Poly":
        """Parse the signed-integer-coefficient grammar over ``t``.

        Rational ``p/q`` coefficients are rejected unless
        ``allow_fractions`` is set, and exponents above ``MAX_EXPONENT``
        always.
        """
        s = text.strip()
        if not s:
            raise PolynomialParseError("empty polynomial string")
        coeffs: dict[int, int | Fraction] = {}
        pos = 0
        first = True
        while pos < len(s):
            m = _TERM_RE.match(s, pos)
            if not m or m.end() == pos:
                raise PolynomialParseError(
                    f"cannot parse polynomial {text!r} at position {pos}"
                )
            sign = m.group("sign")
            if sign is None and not first:
                raise PolynomialParseError(
                    f"missing +/- between terms in {text!r} at position {pos}"
                )
            sgn = -1 if sign == "-" else 1
            raw = m.group("coeff")
            if raw is not None:
                raw = raw.replace(" ", "")
                if "/" in raw:
                    if not allow_fractions:
                        raise PolynomialParseError(
                            f"fractional coefficient {raw!r} not allowed here"
                        )
                    num, den = (_parse_int(x, s) for x in raw.split("/"))
                    if den == 0:
                        raise PolynomialParseError(f"zero denominator in {raw!r}")
                    coeff = Fraction(num, den)
                else:
                    coeff = _parse_int(raw, s)
            else:
                coeff = 1
            if m.group("var1") is not None:
                exp = _parse_int(m.group("exp1") or "1", s)
            elif m.group("var2") is not None:
                exp = _parse_int(m.group("exp2") or "1", s)
            else:
                exp = 0
            if exp > MAX_EXPONENT:
                raise PolynomialParseError(
                    f"exponent above {MAX_EXPONENT} in polynomial {text[:20]!r}..."
                )
            coeffs[exp] = coeffs.get(exp, 0) + sgn * coeff
            pos = m.end()
            first = False
        deg = max(coeffs)
        return cls([coeffs.get(i, 0) for i in range(deg + 1)])

    # -- basic structure ---------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other):
        """Division over the rationals; always exact as a field step.

        Each step stays in the coefficients' own ring while the
        divisor's leading coefficient divides the leading term, so an
        exact division of integer polynomials never leaves the
        integers; a step it does not divide is a ``Fraction`` one.
        """
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        q = [0] * max(0, len(rem) - d)
        lead = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if not c:
                continue
            if lead != 1:
                c, r = divmod(c, lead)
                if r:
                    c = Fraction(rem[i]) / lead
            q[i - d] = c
            for j, b in enumerate(other.coeffs, i - d):
                rem[j] -= c * b
        return Poly(q), Poly(rem)

    def exact_div(self, other) -> "Poly":
        """Division known to be remainder-free; raises if it is not."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError(f"inexact polynomial division: {self} / {other}")
        return q

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other)
        return NotImplemented

    # -- integer-polynomial structure --------------------------------

    def content(self) -> int:
        """Gcd of the integer coefficients (0 for the zero polynomial)."""
        if not self.is_integral():
            raise ValueError("content of a non-integral polynomial")
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        return g

    def primitive(self) -> "Poly":
        """Divide out the content and force a positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        if self.leading < 0:
            g = -g
        return Poly([c // g for c in self.coeffs])

    def clear_denominators(self) -> "Poly":
        """Smallest positive integer multiple with integer coefficients."""
        # an int's denominator is 1
        lcm = math.lcm(*[c.denominator for c in self.coeffs])
        if lcm == 1:
            return self
        return Poly([c * lcm for c in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ValueError("monic form of the zero polynomial")
        lead = Fraction(self.leading)
        return Poly([Fraction(c) / lead for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        """Exact evaluation by Horner's rule; x may be int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def lowest_power(self) -> int:
        """Exponent of the smallest power with nonzero coefficient."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return 0

    def strip_powers(self) -> tuple[int, "Poly"]:
        """Split off the t**k factor: returns (k, self / t**k)."""
        if self.is_zero():
            return 0, self
        k = self.lowest_power()
        return k, Poly(self.coeffs[k:])

    def reversal(self) -> "Poly":
        """Coefficient reversal: t**n * p(1/t) for p of degree n."""
        return Poly(reversed(self.coeffs))

    # -- rendering ---------------------------------------------------

    def format(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            neg = c < 0
            mag = -c if neg else c
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = var if k == 1 else f"{var}^{k}"
            else:
                body = f"{mag}*{var}" if k == 1 else f"{mag}*{var}^{k}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Poly({self.format()!r})"


def _primitive_ints(coeffs: list[int]) -> list[int]:
    """The integer coefficients divided by their content, with a
    positive leading one (the empty list for zero)."""
    g = math.gcd(*coeffs)
    if coeffs and coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs] if g not in (0, 1) else coeffs


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """An integer multiple of the remainder of a by a nonzero b, both
    integer coefficient lists: each step scales the dividend by
    lead(b) / g and subtracts lead(a) / g times b shifted, with g the
    gcd of the two leading coefficients."""
    lb, db = b[-1], len(b)
    r = list(a)
    while len(r) >= db:
        g = math.gcd(lb, r[-1])
        x, y = lb // g, r[-1] // g
        if x != 1:
            r = [x * v for v in r]
        for j, v in enumerate(b, len(r) - db):
            r[j] -= y * v
        while r and not r[-1]:
            r.pop()
    return r


def gcd_primitive(a: Poly, b: Poly) -> Poly:
    """Content-normalised gcd of two integer polynomials.

    The result is primitive with positive leading coefficient; the gcd
    of two zero polynomials is zero.  Rational inputs are scaled to
    integers first, which does not change the result.  Computed by a
    primitive pseudo-remainder sequence on plain ints: each remainder
    is made primitive before the next step, and the last nonzero one is
    the gcd, by Gauss's lemma (a common factor over Q lifts to a
    primitive one over Z).
    """
    a = _primitive_ints(list(a.clear_denominators().coeffs))
    b = _primitive_ints(list(b.clear_denominators().coeffs))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive_ints(_pseudo_remainder(a, b))
    return Poly(a)


def radical(p: Poly) -> Poly:
    """Square-free part of an integer polynomial, primitive, positive lead."""
    if p.is_zero():
        return p
    if p.degree == 0:
        return Poly.one()
    g = gcd_primitive(p, p.derivative())
    if g.degree == 0:
        return p.primitive()
    # g is primitive and divides p over Z (Gauss), so this stays on ints
    return p.exact_div(g).primitive()
