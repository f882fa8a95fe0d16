"""Field targets for specialising the deformation variable.

Four targets cover every specialisation the pipeline performs:

* ``RationalFunctionField`` -- keep the variable, work generically;
* ``NumberField(m)`` -- send the variable to a root of a monic rational
  polynomial m (degree 1 evaluates at a rational point);
* ``Rationals`` -- send the variable to 0 over Q;
* ``PrimeField(p)`` -- send the variable to 0 over Z/p.

Elements implement only what Gaussian elimination calls: ``*``,
binary ``-`` and truth (false exactly when zero, so ``not x`` is the
zero test).  Everything else goes through the target: ``convert`` maps
an integer polynomial to an element, ``div`` divides (elimination uses
it to invert a pivot), and ``one`` and ``zero`` are its constants.
Elements of two different fields do not mix.  The generic target
divides nothing: its entries stay polynomials, and ``matrix``
eliminates them over Z[t] by steps that need no division.

A number-field element is its coefficient vector modulo the modulus m
of degree k.  The field keeps a table of the reductions of t^k, t^(k+1),
... modulo m: the first row is read off m at construction, and each
further row is the previous one times t, so the table grows only when
an entry or product of higher degree first needs it.  Converting an
entry and multiplying two elements (a convolution of the coefficient
vectors) both fold their high coefficients through this table, with no
polynomial division.  Only the inverse runs an extended Euclid.
"""

from __future__ import annotations

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
    """Residue class of a polynomial modulo the field's modulus."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "NumberField", coeffs):
        deg = field.degree
        coeffs = list(coeffs) + [0] * (deg - len(coeffs))
        if len(coeffs) != deg:
            raise ValueError("coefficient vector longer than the field degree")
        self.field = field
        # ``type(c) is Fraction``: isinstance against the ``numbers`` ABC
        # goes through ABCMeta for every coefficient of every product
        self.coeffs = tuple(
            int(c) if type(c) is Fraction and c.denominator == 1 else c
            for c in coeffs
        )

    def _check(self, other) -> "NumberFieldElement":
        if not isinstance(other, NumberFieldElement):
            return NotImplemented
        if other.field is not self.field and other.field.modulus != self.field.modulus:
            raise ValueError("elements of different number fields")
        return other

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return NumberFieldElement(
            self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        prod = [0] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        return self.field._fold(prod)

    def inverse(self) -> "NumberFieldElement":
        """Extended-Euclid inverse modulo the (irreducible) modulus."""
        if not self:
            raise ZeroDivisionError("inverse of zero in a number field")
        r0, r1 = self.field.modulus, Poly(self.coeffs)
        s0, s1 = Poly.zero(), Poly.one()
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
        if r0.degree != 0:
            raise ZeroDivisionError(
                f"element shares a factor with the modulus {self.field.modulus}"
            )
        return self.field.reduce(s0 * (Fraction(1) / Fraction(r0.constant_term)))

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __repr__(self):
        return f"<{Poly(self.coeffs).format()} mod {self.field.modulus.format()}>"


class PrimeFieldElement:
    """An element of Z/p for a prime p."""

    __slots__ = ("p", "value")

    def __init__(self, p: int, value: int):
        self.p = p
        self.value = value % p

    def _check(self, other):
        if not isinstance(other, PrimeFieldElement):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("elements of different prime fields")
        return other

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value - other.value)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.p, self.value * other.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"<{self.value} mod {self.p}>"


class FieldTarget:
    """Common surface of the four specialisation targets."""

    def convert(self, p: Poly):
        raise NotImplementedError

    def div(self, a, b):
        return a / b

    @property
    def zero(self):
        return self.convert(Poly.zero())

    @property
    def one(self):
        return self.convert(Poly.one())

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<target {self.describe()}>"


class RationalFunctionField(FieldTarget):
    """Keep the variable; entries stay polynomials, and elimination
    runs over Z[t] with no division (``matrix._echelon``)."""

    def convert(self, p: Poly) -> Poly:
        return p

    def describe(self) -> str:
        return "generic (rational function field)"

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField)

    def __hash__(self):
        return hash("rational-function-field")


class NumberField(FieldTarget):
    """Q[t] modulo a monic polynomial; degree 1 is rational evaluation."""

    def __init__(self, modulus: Poly):
        modulus = modulus.monic()
        if modulus.degree < 1:
            raise ValueError("number field modulus must be nonconstant")
        self.modulus = modulus
        # _powers[j] holds the coefficients of t^(degree + j) modulo the
        # modulus; t^degree = -(lower terms of the monic modulus)
        self._powers = [tuple(-c for c in modulus.coeffs[:-1])]

    @property
    def degree(self) -> int:
        return self.modulus.degree

    def _fold(self, coeffs) -> NumberFieldElement:
        """The element of a coefficient list of any length: each power
        t^k with k >= degree is replaced by its row of the table."""
        k = self.degree
        out = list(coeffs[:k])
        high = coeffs[k:]
        powers = self._powers
        while len(powers) < len(high):
            # t * t^(k+j): shift up one place and fold the top term back
            last = powers[-1]
            top, shifted = last[-1], (0,) + last[:-1]
            if top:
                shifted = tuple(b + top * c for b, c in zip(shifted, powers[0]))
            powers.append(shifted)
        for c, row in zip(high, powers):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return NumberFieldElement(self, out)

    def reduce(self, p: Poly) -> NumberFieldElement:
        return self._fold(p.coeffs)

    convert = reduce

    def div(self, a: NumberFieldElement, b: NumberFieldElement) -> NumberFieldElement:
        return a * b.inverse()

    def describe(self) -> str:
        if self.degree == 1:
            return f"evaluation at t = {-self.modulus.constant_term}"
        return f"root field of {self.modulus.format()}"

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("number-field", self.modulus))


class Rationals(FieldTarget):
    """Send the variable to 0 over the rationals."""

    def convert(self, p: Poly) -> Fraction:
        return Fraction(p.constant_term)

    def describe(self) -> str:
        return "rationals (t = 0)"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")


class PrimeField(FieldTarget):
    """Send the variable to 0 over Z/p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def convert(self, p: Poly) -> PrimeFieldElement:
        c = p.constant_term
        if not isinstance(c, int):
            raise ValueError("prime-field specialisation needs integer input")
        return PrimeFieldElement(self.p, c)

    def div(self, a: PrimeFieldElement, b: PrimeFieldElement) -> PrimeFieldElement:
        if not b:
            raise ZeroDivisionError(f"division by zero in Z/{self.p}")
        return a * PrimeFieldElement(self.p, pow(b.value, -1, self.p))

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
    is nonzero).  Irreducibility of a declared minimal polynomial is
    certified up to degree 8; beyond that the input is accepted with a
    warning.
    """

    __slots__ = ("minpoly",)

    def __init__(self, minpoly: Poly | None):
        if minpoly is not None:
            minpoly = minpoly.monic()
            if minpoly.degree < 1:
                raise SchemaError("minimal polynomial must be nonconstant")
            if minpoly.constant_term == 0:
                raise SchemaError(
                    "minimal polynomial has zero constant term (the number 0 "
                    "is not an admissible twist)"
                )
            prim = minpoly.clear_denominators().primitive()
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
        self.minpoly = minpoly

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
    def is_algebraic(self) -> bool:
        return self.minpoly is not None

    def primitive_minpoly(self) -> Poly:
        """Integer minimal polynomial with content 1 and positive lead."""
        if self.minpoly is None:
            raise ValueError("a transcendental number has no minimal polynomial")
        return self.minpoly.clear_denominators().primitive()

    def value_if_rational(self) -> Fraction | None:
        if self.minpoly is not None and self.minpoly.degree == 1:
            return Fraction(-self.minpoly.constant_term)
        return None

    def inverse(self) -> "AlgebraicNumberSpec":
        """Specification of the reciprocal number.

        The reversal of an irreducible polynomial with nonzero constant
        term is irreducible, so the reciprocal inherits this spec's
        certification (or its warning) and is built without checking
        or warning again.
        """
        rec = AlgebraicNumberSpec.__new__(AlgebraicNumberSpec)
        rec.minpoly = (
            None if self.minpoly is None else self.minpoly.reversal().monic()
        )
        return rec

    def field_target(self, invert: bool = False) -> FieldTarget:
        """Target sending the variable to the number (or its inverse)."""
        if self.minpoly is None:
            return RationalFunctionField()
        spec = self.inverse() if invert else self
        return NumberField(spec.minpoly)

    def describe(self) -> str:
        if self.minpoly is None:
            return "transcendental"
        value = self.value_if_rational()
        if value is not None:
            return f"rational {value}"
        return f"root of {self.primitive_minpoly().format()}"

    def __eq__(self, other):
        if not isinstance(other, AlgebraicNumberSpec):
            return NotImplemented
        return self.minpoly == other.minpoly

    def __hash__(self):
        return hash(("algnum", self.minpoly))

    def __repr__(self):
        return f"<number: {self.describe()}>"
