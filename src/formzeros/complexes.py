"""Finite free chain complexes over Z[t] and their specialisations.

A complex stores the ranks of its modules in degrees 0..m and the
boundary matrices d_1..d_m, where d_i maps degree i to degree i-1 and
therefore has shape ranks[i-1] x ranks[i].  Specialising the entries
at a field target and counting pivot ranks gives the Betti numbers by
rank-nullity; everything downstream (Poincare polynomials, the
divisibility partial order on them, the two-ideal comparison) happens
on those exact integers.

A complex is immutable, so every fact derived from it is certified
once and kept in its one memo, ``ChainComplex.memo``.  The memo holds
the Betti vector over each field target (key ``("betti", target)``;
targets compare by value) and, for ``bounds.jump_points``, each
boundary's generic rank (``("rank", i)``) and minor gcd
(``("minor_gcd", i)``) and the factor split of each square-free jump
candidate (``("split", candidate, max_factor_degree)``).  It keeps the
``MEMO_SIZE`` most recently added facts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import zip_longest

from .errors import ComplexAxiomViolation, PreconditionViolation, SchemaError
from .factor import is_prime
from .fields import AlgebraicNumberSpec, FieldTarget, PrimeField, RationalFunctionField
from .matrix import Matrix, rank as matrix_rank
from .poly import Poly

RING_TAG = "Z[t]"

_ONE_PLUS_T = Poly((1, 1))

MEMO_SIZE = 64


def _json_int(value, what: str) -> int:
    """``value`` as an int, for an integer field of an input document.
    A float or a bool is refused, not truncated or coerced, and so is
    anything ``int()`` rejects."""
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise SchemaError(f"{what} must be an integer, got {value!r:.40}")


class ChainComplex:
    """Ranks plus boundary matrices with polynomial entries."""

    __slots__ = ("ranks", "boundaries", "_memo")

    def __init__(self, ranks, boundaries):
        try:
            ranks = tuple(_json_int(r, "a rank") for r in ranks)
        except TypeError:
            ranks = None
        if not ranks or any(r < 0 for r in ranks):
            raise SchemaError("ranks must be a nonempty list of nonnegative ints")
        boundaries = tuple(boundaries)
        if len(boundaries) != len(ranks) - 1:
            raise SchemaError(
                f"expected {len(ranks) - 1} boundary matrices, got {len(boundaries)}"
            )
        for i, d in enumerate(boundaries, start=1):
            if (d.nrows, d.ncols) != (ranks[i - 1], ranks[i]):
                raise SchemaError(
                    f"boundary d_{i} has shape {d.nrows}x{d.ncols}, "
                    f"expected {ranks[i - 1]}x{ranks[i]}"
                )
        self.ranks = ranks
        self.boundaries = boundaries
        self._memo = {}  # fact key -> value, filled through memo()

    @property
    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, i: int) -> Matrix:
        """d_i for 1 <= i <= m; zero-shaped matrices off the ends."""
        if 1 <= i <= self.top_degree:
            return self.boundaries[i - 1]
        if i == 0:
            return Matrix.zeros(0, self.ranks[0], Poly.zero())
        if i == self.top_degree + 1:
            return Matrix.zeros(self.ranks[-1], 0, Poly.zero())
        raise IndexError(f"no boundary in degree {i}")

    def memo(self, key, compute):
        """The fact under ``key``, calling ``compute()`` on first use;
        the oldest fact is dropped once ``MEMO_SIZE`` are held."""
        memo = self._memo
        if key in memo:
            return memo[key]
        value = compute()
        if len(memo) >= MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = value
        return value

    def validate(self) -> None:
        """Check d o d = 0 over Z[t]; name the first bad degree."""
        for i in range(1, self.top_degree):
            prod = self.boundary(i).mul(self.boundary(i + 1))
            if not prod.is_zero():
                raise ComplexAxiomViolation(
                    f"d_{i} composed with d_{i + 1} is nonzero"
                )

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return self.ranks == other.ranks and self.boundaries == other.boundaries

    def __repr__(self):
        return f"ChainComplex(ranks={self.ranks})"

    # -- serialisation ----------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "ring": RING_TAG,
            "ranks": list(self.ranks),
            "boundaries": [
                [[entry.format() for entry in row] for row in d.rows]
                for d in self.boundaries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChainComplex":
        if not isinstance(data, dict):
            raise SchemaError("complex document must be a JSON object")
        if data.get("ring") != RING_TAG:
            raise SchemaError(f'complex must declare "ring": "{RING_TAG}"')
        ranks = data.get("ranks")
        bnds = data.get("boundaries")
        if not isinstance(ranks, list) or not isinstance(bnds, list):
            raise SchemaError('complex needs "ranks" and "boundaries" lists')
        matrices = []
        for i, rows in enumerate(bnds, start=1):
            if i >= len(ranks):
                raise SchemaError("more boundaries than rank transitions")
            nr, nc = ranks[i - 1], ranks[i]
            if not isinstance(rows, list) or len(rows) != nr:
                raise SchemaError(
                    f"boundary d_{i} must be a list of {nr} rows"
                )
            parsed = []
            for row in rows:
                if not isinstance(row, list) or len(row) != nc:
                    raise SchemaError(
                        f"boundary d_{i} rows must have length {nc}"
                    )
                parsed.append([Poly.parse(s) for s in row])
            matrices.append(Matrix(nr, nc, parsed))
        cx = cls(ranks, matrices)
        cx.validate()
        return cx

    @classmethod
    def from_json(cls, text: str) -> "ChainComplex":
        try:
            data = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or too many digits
            raise SchemaError(f"invalid JSON: {exc}") from None
        return cls.from_json_dict(data)


@dataclass(frozen=True)
class BettiVector:
    """Betti numbers of a specialised complex, one per degree."""

    entries: tuple
    target: str

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def poincare(self) -> Poly:
        return Poly(self.entries)


def betti(cx: ChainComplex, target: FieldTarget) -> BettiVector:
    """Betti numbers over the target by rank-nullity.

    b_i = ranks[i] - rank(d_i) - rank(d_{i+1}) with the off-end
    boundaries read as zero.  Memoised on the complex per target.
    """

    def compute() -> BettiVector:
        m = cx.top_degree
        bd_ranks = [0] * (m + 2)
        for i in range(1, m + 1):
            bd_ranks[i] = matrix_rank(cx.boundary(i), target)
        entries = tuple(
            cx.ranks[i] - bd_ranks[i] - bd_ranks[i + 1] for i in range(m + 1)
        )
        return BettiVector(entries, target.describe())

    return cx.memo(("betti", target), compute)


def poincare(cx: ChainComplex, target: FieldTarget) -> Poly:
    return betti(cx, target).poincare()


def euler_characteristic(cx: ChainComplex, target: FieldTarget) -> int:
    """Alternating sum of Betti numbers; equals the alternating sum of
    the module ranks for every field target."""
    b = betti(cx, target)
    return sum((-1) ** i * v for i, v in enumerate(b.entries))


def dominates(p: Poly, q: Poly) -> tuple[bool, Poly | None]:
    """Divisibility order on counting polynomials.

    p >= q holds when p - q = (1 + t) * w for a polynomial w with
    nonnegative coefficients; returns (verdict, w or None).
    """
    diff = Poly([a - b for a, b in zip_longest(p.coeffs, q.coeffs, fillvalue=0)])
    if diff.is_zero():
        return True, diff
    w, rem = divmod(diff, _ONE_PLUS_T)
    if not rem.is_zero():
        return False, None
    if any(c < 0 for c in w.coeffs):
        return False, None
    return True, w


def dominates_alternating(p: Poly, q: Poly) -> bool:
    """The same order via alternating partial sums.

    Requires sum_{j<=r} (-1)^j p_{r-j} >= sum_{j<=r} (-1)^j q_{r-j}
    for every r, including the stabilised tail beyond both degrees.
    """
    top = max(p.degree, q.degree) + 1
    sp = sq = 0
    for r in range(top + 1):
        sp = p[r] - sp
        sq = q[r] - sq
        if sp < sq:
            return False
    return True


@dataclass(frozen=True)
class SpecializationOrderReport:
    """Outcome of comparing the two specialisations of one complex."""

    holds: bool
    poincare_modp: Poly
    poincare_at_inverse: Poly
    ideal_at_inverse: str
    boundary_ideal: str
    witness: Poly | None

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "poincare_modp": list(self.poincare_modp.coeffs),
            "poincare_at_inverse": list(self.poincare_at_inverse.coeffs),
            "ideal_at_inverse": self.ideal_at_inverse,
            "boundary_ideal": self.boundary_ideal,
            "witness": list(self.witness.coeffs) if self.witness is not None else None,
        }


def _require_admissible_prime(a: AlgebraicNumberSpec, p: int) -> None:
    """Refuse p unless the vanishing ideal of 1/a lies inside (p, t).

    That holds when p is prime and, for algebraic a, divides the free
    term of the primitive minimal polynomial of 1/a; the ideal of a
    transcendental a is zero, so there every prime is admissible.
    """
    if not is_prime(p):
        raise PreconditionViolation(f"{p} is not prime")
    if a.is_algebraic:
        m_inv = a.inverse().primitive_minpoly()
        if m_inv.constant_term % p != 0:
            raise PreconditionViolation(
                f"ideal ({m_inv.format()}) is not contained in ({p}, t): "
                f"prime {p} does not divide the free term "
                f"{m_inv.constant_term} of the reciprocal's minimal "
                "polynomial; not admissible"
            )


def specialization_order_check(
    cx: ChainComplex, a: AlgebraicNumberSpec, p: int
) -> SpecializationOrderReport:
    """Check that the mod-p Betti data dominates the data at 1/a.

    Precondition: p is admissible for a (``_require_admissible_prime``).
    Under that containment the domination is a theorem; a False verdict
    therefore flags an implementation bug and the CLI treats it as one.
    """
    _require_admissible_prime(a, p)
    if a.is_algebraic:
        inv = a.inverse()
        inv_target: FieldTarget = inv.field_target()
        ideal_a = f"({inv.primitive_minpoly().format()})"
    else:
        inv_target = RationalFunctionField()
        ideal_a = "(0)"
    p_modp = poincare(cx, PrimeField(p))
    p_inv = poincare(cx, inv_target)
    holds, witness = dominates(p_modp, p_inv)
    return SpecializationOrderReport(
        holds=holds,
        poincare_modp=p_modp,
        poincare_at_inverse=p_inv,
        ideal_at_inverse=ideal_a,
        boundary_ideal=f"({p}, t)",
        witness=witness,
    )
