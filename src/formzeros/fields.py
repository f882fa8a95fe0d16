"""Field targets for specialising the deformation variable.

Four targets cover every specialisation the pipeline performs:

* ``RationalFunctionField`` -- keep the variable, work generically;
* ``NumberField(m)`` -- send the variable to a root of an irreducible rational
  polynomial m (degree 1 evaluates at a rational point);
* ``Rationals`` -- send the variable to 0 over Q;
* ``PrimeField(p)`` -- send the variable to 0 over Z/p.

Only number fields have elements.  ``NumberField.reduce`` maps a
polynomial to a ``NumberFieldElement``, and elements implement what
Gaussian elimination calls: ``*``, binary ``-``, ``inverse`` and truth
(false exactly when zero).  Elements of two different fields do not
mix.  The other three targets only name where the variable goes:
``matrix`` eliminates their matrices over Z[t], or over Z/p[t] for
``PrimeField``, on plain integers, by steps that need no division.

Number fields compute on plain integers.  The field keeps its modulus
as a primitive integer polynomial F of degree k with leading
coefficient c, and an element is k integer numerators over one
positive denominator, in lowest terms: one gcd per element, no
``Fraction`` per coefficient.  The field's table holds integer rows R_j
with t^(k+j) = R_j / c^(j+1) modulo F: R_0 is read off F at
construction, and R_(j+1) is c times R_j shifted up one place plus its
top coefficient times R_0, so the table grows only when an entry or
product of higher degree first needs it.  Reducing an entry and
multiplying two elements (a convolution of the numerators) both fold
their high coefficients through this table, scaling by a single power
of c, with no polynomial division.  Only the inverse runs an extended
Euclid, by integer pseudo-division: each step scales the remainder and
its cofactor alike and then divides out their joint content, so the
coefficients stay integers of moderate size (Cohen, *A Course in
Computational Algebraic Number Theory*, sections 3.1 and 4.2).
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

from .errors import SchemaError
from .factor import is_irreducible, is_prime
from .poly import Poly

IRREDUCIBILITY_CHECK_LIMIT = 8
# construction-time certification is advisory, so it gets a small work
# budget; callers wanting a deep search should factor explicitly
IRREDUCIBILITY_CHECK_BUDGET = 50_000


class NumberFieldElement:
    """Residue class of a polynomial modulo the field's modulus: the
    integer numerators ``num`` (ascending powers, one per power below
    the field degree) over the positive denominator ``den``, in lowest
    terms, so ``gcd(den, *num) == 1`` and zero is ``num`` of zeros over
    1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "NumberField", num, den: int = 1):
        """The element sum(num[i] * t^i) / den, for ``field.degree``
        integers ``num`` and a positive integer ``den``."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self.field = field
        self.num = tuple(num)
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The coefficients as rationals: ints where integral, else
        ``Fraction``s."""
        den = self.den
        if den == 1:
            return self.num
        return tuple(c // den if c % den == 0 else Fraction(c, den) for c in self.num)

    def _check(self, other) -> "NumberFieldElement":
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        if other.field is not self.field and other.field._f != self.field._f:
            raise ValueError("elements of different number fields")
        return other

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            num = [a - b for a, b in zip(self.num, other.num)]
        else:
            g = math.gcd(da, db)
            ma, mb = db // g, da // g
            num = [a * ma - b * mb for a, b in zip(self.num, other.num)]
            da *= ma
        return NumberFieldElement(self.field, num, da)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        prod = [0] * (2 * self.field.degree - 1)
        bs = other.num
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(bs, i):
                    prod[j] += a * b
        return self.field._fold(prod, self.den * other.den)

    def inverse(self) -> "NumberFieldElement":
        """Extended-Euclid inverse modulo the (irreducible) modulus, by
        integer pseudo-division.

        With x = A/den, each remainder r of the sequence F, A, ... keeps
        a cofactor s with r = s*A mod F up to one rational factor: a
        step scales r and s alike, then divides out their joint integer
        content.  The last nonzero remainder is a constant g exactly
        when A and F are coprime, and then 1/x = den*s/g.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero in a number field")
        field = self.field
        num = list(self.num)
        while not num[-1]:
            num.pop()
        r0, r1 = list(field._f), num
        s0, s1 = [], [1]
        while r1:
            lb, db = r1[-1], len(r1)
            r, s = r0, s0
            while len(r) >= db:
                g = math.gcd(lb, r[-1])
                a, b, shift = lb // g, r[-1] // g, len(r) - db
                r = [a * v for v in r]
                for j, v in enumerate(r1, shift):
                    r[j] -= b * v
                s = [a * v for v in s]
                s.extend([0] * (len(s1) + shift - len(s)))
                for j, v in enumerate(s1, shift):
                    s[j] -= b * v
                while r and not r[-1]:
                    r.pop()
                while s and not s[-1]:
                    s.pop()
            content = math.gcd(*r, *s)
            if content > 1:
                r = [v // content for v in r]
                s = [v // content for v in s]
            r0, r1, s0, s1 = r1, r, s1, s
        if len(r0) != 1:
            raise ZeroDivisionError(
                f"element shares a factor with the modulus {field.modulus}"
            )
        g, scale = r0[0], self.den
        if g < 0:
            g, scale = -g, -scale
        return field._fold([scale * v for v in s0], g)

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return f"<{Poly(self.coeffs).format()} mod {self.field.modulus.format()}>"


class FieldTarget:
    """Common surface of the four specialisation targets: a
    description, and equality by value."""

    __slots__ = ()

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<target {self.describe()}>"


class RationalFunctionField(FieldTarget):
    """Keep the variable; entries stay polynomials, and elimination
    runs over Z[t] with no division (``matrix._echelon``)."""

    __slots__ = ()

    def describe(self) -> str:
        return "generic (rational function field)"

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField)

    def __hash__(self):
        return hash("rational-function-field")


class NumberField(FieldTarget):
    """Q[t] modulo an irreducible polynomial, kept as its primitive
    integer form F (positive leading coefficient); degree 1 is rational
    evaluation."""

    __slots__ = ("degree", "_f", "_rows")

    def __init__(self, modulus: Poly):
        f = modulus.clear_denominators().primitive()
        if f.degree < 1:
            raise ValueError("number field modulus must be nonconstant")
        self.degree = f.degree
        self._f = f.coeffs
        # _rows[j] holds the integers R_j with t^(degree + j) = R_j /
        # c^(j + 1) modulo F, c its leading coefficient: c * t^degree =
        # -(lower terms of F)
        self._rows = [tuple(-v for v in self._f[:-1])]

    @property
    def modulus(self) -> Poly:
        """The monic modulus."""
        return Poly(self._f).monic()

    def _fold(self, ints, den: int) -> NumberFieldElement:
        """The element sum(ints[i] * t^i) / den, for integers ``ints``
        of any length and a positive integer ``den``.

        With h powers t^degree and above up to the last nonzero one,
        everything is scaled by c^h: each t^(degree + j) becomes
        c^(h - 1 - j) * R_j, the low coefficients are multiplied by c^h,
        and the denominator takes the one factor c^h.
        """
        k = self.degree
        n = len(ints)
        while n > k and not ints[n - 1]:
            n -= 1
        if n <= k:
            return NumberFieldElement(self, list(ints[:n]) + [0] * (k - n), den)
        h = n - k
        rows, c = self._rows, self._f[-1]
        while len(rows) < h:
            # t * t^(k+j): shift up one place, and fold the top term back
            # through c * t^k = R_0
            last = rows[-1]
            top, shifted = last[-1], (0,) + tuple(c * v for v in last[:-1])
            if top:
                shifted = tuple(a + top * b for a, b in zip(shifted, rows[0]))
            rows.append(shifted)
        out = [0] * k
        scale = 1  # c^(h - 1 - j), then c^h after the loop
        for j in range(h - 1, -1, -1):
            x = ints[k + j]
            if x:
                x *= scale
                for i, r in enumerate(rows[j]):
                    out[i] += x * r
            scale *= c
        out = [a + scale * v for a, v in zip(out, ints)]
        return NumberFieldElement(self, out, den * scale)

    def reduce(self, p: Poly) -> NumberFieldElement:
        coeffs = p.coeffs
        # an int's denominator is 1
        den = math.lcm(*[c.denominator for c in coeffs])
        if den != 1:
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        return self._fold(coeffs, den)

    def describe(self) -> str:
        if self.degree == 1:
            return f"evaluation at t = {-self.modulus.constant_term}"
        return f"root field of {self.modulus.format()}"

    def __eq__(self, other):
        return isinstance(other, NumberField) and other._f == self._f

    def __hash__(self):
        return hash(("number-field", self._f))


class Rationals(FieldTarget):
    """Send the variable to 0 over the rationals; ``matrix`` ranks the
    integer matrix of constant terms."""

    __slots__ = ()

    def describe(self) -> str:
        return "rationals (t = 0)"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")


class PrimeField(FieldTarget):
    """Send the variable to 0 over Z/p, for a certified prime p;
    ``matrix`` ranks the constant terms mod p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def describe(self) -> str:
        return f"prime field Z/{self.p} (t = 0)"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))


class AlgebraicNumberSpec:
    """A nonzero number described by exact data only.

    Either transcendental, or algebraic with a monic rational minimal
    polynomial (degree >= 1, nonzero constant term so the number itself
    is nonzero), carried as its primitive integer form with positive
    lead, which determines the monic one.  Irreducibility of a declared minimal polynomial is
    certified up to degree 8; beyond that the input is accepted with a
    warning.
    """

    __slots__ = ("_prim",)

    def __init__(self, minpoly: Poly | None):
        prim = None
        if minpoly is not None:
            prim = minpoly.clear_denominators().primitive()
            if prim.degree < 1:
                raise SchemaError("minimal polynomial must be nonconstant")
            if prim.constant_term == 0:
                raise SchemaError(
                    "minimal polynomial has zero constant term (the number 0 "
                    "is not an admissible twist)"
                )
            verdict = is_irreducible(
                prim, IRREDUCIBILITY_CHECK_LIMIT, IRREDUCIBILITY_CHECK_BUDGET
            )
            if verdict is False:
                raise SchemaError(
                    f"declared minimal polynomial {prim.format()} is reducible"
                )
            if verdict is None:
                warnings.warn(
                    f"irreducibility of {prim.format()} not certified "
                    f"(degree above {IRREDUCIBILITY_CHECK_LIMIT} or search "
                    "budget exhausted); proceeding on the caller's word",
                    stacklevel=2,
                )
        self._prim = prim

    # -- constructors ------------------------------------------------

    @classmethod
    def transcendental(cls) -> "AlgebraicNumberSpec":
        return cls(None)

    @classmethod
    def from_rational(cls, value) -> "AlgebraicNumberSpec":
        value = Fraction(value)
        return cls(Poly((-value, 1)))

    @classmethod
    def from_minpoly_text(cls, text: str) -> "AlgebraicNumberSpec":
        return cls(Poly.parse(text, allow_fractions=True))

    @classmethod
    def parse(cls, spec: str) -> "AlgebraicNumberSpec":
        """Parse the CLI syntax: ``root:POLY``, ``rat:p/q``, ``int:n``,
        or ``transcendental``."""
        spec = spec.strip()
        if spec == "transcendental":
            return cls.transcendental()
        if spec.startswith("root:"):
            return cls.from_minpoly_text(spec[5:])
        if spec.startswith("rat:"):
            body = spec[4:].strip()
            try:
                if "/" in body:
                    num, den = body.split("/", 1)
                    value = Fraction(int(num), int(den))
                else:
                    value = Fraction(int(body))
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"bad rational {body!r}: {exc}") from None
            if value == 0:
                raise SchemaError("the number 0 is not an admissible twist")
            return cls.from_rational(value)
        if spec.startswith("int:"):
            body = spec[4:].strip()
            try:
                value = int(body)
            except ValueError as exc:
                raise SchemaError(f"bad integer {body!r}: {exc}") from None
            if value == 0:
                raise SchemaError("the number 0 is not an admissible twist")
            return cls.from_rational(value)
        raise SchemaError(
            f"unrecognised number spec {spec!r} "
            "(expected root:POLY, rat:p/q, int:n, or transcendental)"
        )

    # -- queries -----------------------------------------------------

    @property
    def minpoly(self) -> Poly | None:
        """The monic rational minimal polynomial (None if transcendental)."""
        return None if self._prim is None else self._prim.monic()

    @property
    def is_algebraic(self) -> bool:
        return self._prim is not None

    def primitive_minpoly(self) -> Poly:
        """Integer minimal polynomial with content 1 and positive lead."""
        if self._prim is None:
            raise ValueError("a transcendental number has no minimal polynomial")
        return self._prim

    def value_if_rational(self) -> Fraction | None:
        if self._prim is not None and self._prim.degree == 1:
            return Fraction(-self._prim.constant_term, self._prim.leading)
        return None

    def inverse(self) -> "AlgebraicNumberSpec":
        """Specification of the reciprocal number.

        The reversal of an irreducible polynomial with nonzero constant
        term is irreducible, so the reciprocal inherits this spec's
        certification (or its warning) and is built without checking
        or warning again.  Reversing a primitive integer polynomial
        keeps it primitive; only the sign of its lead is fixed.
        """
        rec = AlgebraicNumberSpec.__new__(AlgebraicNumberSpec)
        rev = None if self._prim is None else self._prim.reversal()
        rec._prim = rev if rev is None or rev.leading > 0 else -rev
        return rec

    def field_target(self, invert: bool = False) -> FieldTarget:
        """Target sending the variable to the number (or its inverse)."""
        if self._prim is None:
            return RationalFunctionField()
        spec = self.inverse() if invert else self
        return NumberField(spec._prim)

    def describe(self) -> str:
        if self._prim is None:
            return "transcendental"
        value = self.value_if_rational()
        if value is not None:
            return f"rational {value}"
        return f"root of {self._prim.format()}"

    def __eq__(self, other):
        if not isinstance(other, AlgebraicNumberSpec):
            return NotImplemented
        return self._prim == other._prim

    def __hash__(self):
        return hash(("algnum", self._prim))

    def __repr__(self):
        return f"<number: {self.describe()}>"
