"""Lower bounds for zero counts, and the certificates around them.

Everything here consumes exact data produced by the other modules: a
complex over Z[t], a number specification for the twist a, and the
field targets.  The headline operation turns Betti numbers of the
specialised complex into per-degree lower bounds c_j >= b_j / dim E,
refusing twists whose minimal polynomial is monic with free term +-1
(for those the bound genuinely fails, so refusal is the honest
output).  Jump detection locates the finitely many twists where the
Betti numbers exceed their generic values, via gcds of maximal minors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .complexes import ChainComplex, _require_admissible_prime, betti
from .deformation import specialize_at_class
from .errors import (
    DirichletUnitRefusal,
    IsAlgebraicInteger,
    SchemaError,
)
from .factor import smallest_prime_factor, split_squarefree
from .fields import AlgebraicNumberSpec, NumberField, RationalFunctionField
from .matrix import minor_gcd, rank as matrix_rank
from .poly import Poly, radical


@dataclass(frozen=True)
class UnitClassification:
    is_algebraic: bool
    is_algebraic_integer: bool
    is_dirichlet_unit: bool
    primitive_minpoly: Poly | None

    def to_json_dict(self) -> dict:
        return {
            "is_algebraic": self.is_algebraic,
            "is_algebraic_integer": self.is_algebraic_integer,
            "is_dirichlet_unit": self.is_dirichlet_unit,
            "primitive_minpoly": (
                self.primitive_minpoly.format()
                if self.primitive_minpoly is not None
                else None
            ),
        }


def classify(a: AlgebraicNumberSpec) -> UnitClassification:
    """Algebraic integer iff the primitive minimal polynomial is monic;
    a unit in the algebraic integers iff moreover its free term is +-1,
    which is exactly when 1/a is an algebraic integer too."""
    if not a.is_algebraic:
        return UnitClassification(False, False, False, None)
    prim = a.primitive_minpoly()
    integer = prim.leading == 1
    unit = integer and abs(prim.constant_term) == 1
    return UnitClassification(True, integer, unit, prim)


@dataclass(frozen=True)
class PrimeSelection:
    p: int
    reason: str


def select_prime(a: AlgebraicNumberSpec) -> PrimeSelection:
    """Smallest prime p with the vanishing ideal of 1/a inside (p, t).

    That ideal is generated by the primitive minimal polynomial of 1/a,
    so p divides its free term, equivalently the leading coefficient of
    the minimal polynomial of a.  Raises IsAlgebraicInteger when no
    such prime exists, and returns 2 for transcendental a, where the
    ideal is zero and every prime works.  ``zero_bounds`` calls it on
    1/a for an algebraic integer a; the prime it gets then has the
    ideal of a itself, not of 1/a, inside (p, t).
    """
    if not a.is_algebraic:
        return PrimeSelection(2, "all primes admissible (zero vanishing ideal)")
    prim = a.primitive_minpoly()
    lead = prim.leading
    if lead == 1:
        raise IsAlgebraicInteger(
            f"minimal polynomial {prim.format()} is monic; no prime divides "
            "every free term of the vanishing ideal of the reciprocal"
        )
    p = smallest_prime_factor(lead)
    return PrimeSelection(
        p, f"smallest prime dividing the leading coefficient {lead}"
    )


@dataclass(frozen=True)
class BoundsReport:
    """Per-degree lower bounds on zero counts of a generic one-form
    in the class, from the Betti numbers of the twisted complex."""

    a: str
    classification: UnitClassification
    dim_e: int
    betti: tuple
    target: str
    weak: tuple  # exact Fractions b_j / dim_e
    ceilings: tuple  # integer round-ups of the weak bounds (sharpening)
    strong: tuple  # alternating partial sums of the weak bounds
    prime: int | None
    prime_reason: str
    ideal_at_inverse: str
    boundary_ideal: str

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "classification": self.classification.to_json_dict(),
            "dim_e": self.dim_e,
            "betti": list(self.betti),
            "target": self.target,
            "weak": [str(w) for w in self.weak],
            "ceilings": list(self.ceilings),
            "strong": [str(s) for s in self.strong],
            "prime": self.prime,
            "prime_reason": self.prime_reason,
            "ideal_at_inverse": self.ideal_at_inverse,
            "boundary_ideal": self.boundary_ideal,
        }


def zero_bounds(
    cx: ChainComplex, a: AlgebraicNumberSpec, dim_e: int, prime: int | None = None
) -> BoundsReport:
    """Bounds c_j >= b_j / dim E from the complex specialised at 1/a.

    Refuses a twist that is a unit among the algebraic integers: there
    the twisted homology can vanish for all nearby classes and no such
    bound holds.  A caller's ``prime`` is checked admissible for a and
    then replaces ``select_prime``, which is not run.  The integer
    ceilings are a sharpening this tool adds on top of the exact
    rational bounds (zero counts are integers); the strong bounds are
    the alternating partial sums, whose degree-j and degree-(j-1)
    values add back up to the weak bound.
    """
    if dim_e < 1:
        raise SchemaError("dim E must be a positive integer")
    cls = classify(a)
    if cls.is_dirichlet_unit:
        raise DirichletUnitRefusal(
            "twist is a unit among algebraic integers (minimal polynomial "
            f"{cls.primitive_minpoly.format()}); the lower bounds fail for "
            "such twists and are refused"
        )
    if prime is not None:
        _require_admissible_prime(a, prime)
    bv = specialize_at_class(cx, a, "xi")
    weak = tuple(Fraction(b, dim_e) for b in bv.entries)
    ceilings = tuple(-((-b) // dim_e) for b in bv.entries)
    strong = []
    s = Fraction(0)
    for w in weak:
        s = w - s
        strong.append(s)
    ideal_a = (
        f"({a.inverse().primitive_minpoly().format()})" if a.is_algebraic else "(0)"
    )
    if prime is not None:
        sel = PrimeSelection(prime, "caller override")
    elif cls.is_algebraic_integer:
        sel = select_prime(a.inverse())
        sel = PrimeSelection(sel.p, sel.reason + " (via the reciprocal)")
    else:
        sel = select_prime(a)
    return BoundsReport(
        a=a.describe(),
        classification=cls,
        dim_e=dim_e,
        betti=bv.entries,
        target=bv.target,
        weak=weak,
        ceilings=ceilings,
        strong=tuple(strong),
        prime=sel.p,
        prime_reason=sel.reason,
        ideal_at_inverse=ideal_a,
        boundary_ideal=f"({sel.p}, t)",
    )


@dataclass(frozen=True)
class JumpFactor:
    factor: Poly
    status: str  # "confirmed" | "unconfirmed"
    value: int | None  # Betti number at the root field, when confirmed
    def to_json_dict(self) -> dict:
        return {
            "factor": self.factor.format(),
            "degree": self.factor.degree,
            "status": self.status,
            "value": self.value,
        }


@dataclass(frozen=True)
class JumpReport:
    """Where the Betti number in one degree exceeds its generic value.

    Factors are polynomials in the deformation variable t; their roots
    are the specialisation points t = 1/a at which the degree's Betti
    number jumps.  Powers of t are stripped (the twist is nonzero), and
    integer content never moves roots.
    """

    degree: int
    generic: int
    candidate: Poly
    factors: tuple = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "generic": self.generic,
            "candidate": self.candidate.format(),
            "factors": [f.to_json_dict() for f in self.factors],
        }


def jump_points(
    cx: ChainComplex, degree: int, max_factor_degree: int = 8
) -> JumpReport:
    """Candidate and confirmed jump loci for one homological degree.

    The Betti number b_j rises exactly where rank d_j or rank d_{j+1}
    falls below its generic value, i.e. at common roots of the gcd of
    maximal minors.  Square-free irreducible factors of degree at most
    ``max_factor_degree`` are confirmed by re-specialising the complex
    at their root field; anything larger stays unconfirmed.

    Every degree-independent fact (a boundary's generic rank and minor
    gcd, the split of a candidate, the Betti vector at a root field) is
    kept in the complex's memo, so calls on one complex share them.
    """
    m = cx.top_degree
    if not 0 <= degree <= m:
        raise SchemaError(f"degree {degree} outside 0..{m}")
    rff = RationalFunctionField()
    # generic ranks of d_j and d_{j+1}; off-end boundaries are zero
    ranks = {
        i: cx.memo(("rank", i), lambda: matrix_rank(cx.boundary(i), rff))
        for i in (degree, degree + 1)
        if 1 <= i <= m
    }
    generic_b = cx.ranks[degree] - sum(ranks.values())
    candidate = Poly.one()
    for i, r in ranks.items():
        # a boundary that vanishes generically lowers no Betti number
        if r:
            g = cx.memo(("minor_gcd", i), lambda: minor_gcd(cx.boundary(i), r))
            candidate = candidate * g
    candidate = candidate.strip_powers()[1].primitive()
    sq = radical(candidate)
    factors: list[JumpFactor] = []
    if sq.degree >= 1:
        irreducible, unresolved = cx.memo(
            ("split", sq, max_factor_degree),
            lambda: tuple(map(tuple, split_squarefree(sq, max_factor_degree))),
        )
        for f in irreducible:
            value = betti(cx, NumberField(f))[degree]
            status = "confirmed" if value > generic_b else "rejected"
            factors.append(JumpFactor(f, status, value))
        for f in unresolved:
            factors.append(JumpFactor(f, "unconfirmed", None))
    return JumpReport(
        degree=degree,
        generic=generic_b,
        candidate=sq,
        factors=tuple(factors),
    )


def all_jump_points(
    cx: ChainComplex, max_factor_degree: int = 8
) -> list[JumpReport]:
    """``jump_points`` for every degree.

    Degree j reads d_j and d_{j+1}, so each boundary serves two
    degrees, and one root field can confirm factors in several; the
    complex's memo computes each such fact once.
    """
    return [jump_points(cx, j, max_factor_degree) for j in range(cx.top_degree + 1)]
