"""From group-ring presentations to polynomial chain complexes.

A presentation lists generators g with an integer grade xi(g) <= 0 and
an invertible integer monodromy matrix Mon(g), plus boundary matrices
whose entries are Z-linear combinations of words in the generators.
Substituting each word w by t^(-xi(w)) * Mon(w) -- with Mon evaluated
anti-multiplicatively, Mon(g h) = Mon(h) Mon(g) -- inflates every
scalar entry to an m x m polynomial block and yields an ordinary
complex over Z[t], the deformation complex of the presentation.

The surgery example models a closed 3-manifold built from 0-surgery on
the trefoil connect-summed with S^1 x S^2, where the twisted first
homology stays at dimension 2N for every twist a != 1 while the
untwisted one vanishes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .complexes import BettiVector, ChainComplex, _json_int, betti, dominates
from .errors import NonUnimodular, PositiveXiWord, SchemaError
from .fields import AlgebraicNumberSpec, NumberField
from .matrix import Matrix, int_det
from .poly import Poly

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Generator:
    name: str
    xi: int
    mon: Matrix  # integer entries, det +-1


class GroupWordSum:
    """A finite Z-linear combination of words in named generators.

    Words multiply by juxtaposition ("g h"); the empty word is written
    "1".  Stored as a mapping from word tuples to nonzero integers.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {w: int(c) for w, c in terms.items() if c != 0}

    @classmethod
    def parse(cls, text: str) -> "GroupWordSum":
        s = text.strip()
        if not s:
            raise SchemaError("empty group-ring entry")
        if s == "0":
            return cls({})
        terms: dict[tuple, int] = {}
        # cut into signed chunks at top-level +/-
        chunks = re.findall(r"[+-]?[^+-]+", s)
        if "".join(chunks).strip() != s:
            raise SchemaError(f"cannot tokenise group-ring entry {text!r}")
        for chunk in chunks:
            chunk = chunk.strip()
            sign = 1
            if chunk.startswith("-"):
                sign, chunk = -1, chunk[1:]
            elif chunk.startswith("+"):
                chunk = chunk[1:]
            tokens = chunk.replace("*", " ").split()
            if not tokens:
                raise SchemaError(f"dangling sign in group-ring entry {text!r}")
            coeff = 1
            if re.fullmatch(r"\d+", tokens[0]):
                coeff = int(tokens[0])
                tokens = tokens[1:]
            for tok in tokens:
                if not _NAME_RE.match(tok):
                    raise SchemaError(
                        f"bad generator name {tok!r} in entry {text!r}"
                    )
            word = tuple(tokens)
            terms[word] = terms.get(word, 0) + sign * coeff
        return cls(terms)

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[word]
            neg = c < 0
            mag = -c if neg else c
            if not word:
                body = str(mag)
            elif mag == 1:
                body = " ".join(word)
            else:
                body = f"{mag} " + " ".join(word)
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"GroupWordSum({self.format()!r})"


class GroupRingPresentation:
    """Generators with grades and monodromies, plus scalar boundaries."""

    __slots__ = ("m", "generators", "ranks", "boundaries")

    def __init__(self, m: int, generators, ranks, boundaries):
        if m < 1:
            raise SchemaError("fiber rank m must be at least 1")
        self.m = m
        gens: dict[str, Generator] = {}
        for name, gen in generators.items():
            if not _NAME_RE.match(name):
                raise SchemaError(f"bad generator name {name!r}")
            if gen.xi > 0:
                raise PositiveXiWord(
                    f"generator {name!r} has positive grade xi={gen.xi}"
                )
            if gen.mon.nrows != m or gen.mon.ncols != m:
                raise SchemaError(
                    f"monodromy of {name!r} must be {m}x{m}, "
                    f"got {gen.mon.nrows}x{gen.mon.ncols}"
                )
            if int_det(gen.mon.rows) not in (1, -1):
                raise NonUnimodular(
                    f"monodromy of {name!r} has determinant "
                    f"{int_det(gen.mon.rows)}, expected +-1"
                )
            gens[name] = gen
        self.generators = gens
        try:
            self.ranks = tuple(_json_int(r, "a rank") for r in ranks)
        except TypeError:
            self.ranks = ()
        if not self.ranks or any(r < 0 for r in self.ranks):
            raise SchemaError("ranks must be a nonempty list of nonnegative ints")
        self.boundaries = tuple(tuple(tuple(row) for row in b) for b in boundaries)
        if len(self.boundaries) != len(self.ranks) - 1:
            raise SchemaError(
                f"expected {len(self.ranks) - 1} boundary matrices, "
                f"got {len(self.boundaries)}"
            )
        for i, b in enumerate(self.boundaries, start=1):
            nr, nc = self.ranks[i - 1], self.ranks[i]
            if len(b) != nr or any(len(row) != nc for row in b):
                raise SchemaError(f"boundary {i} does not have shape {nr}x{nc}")
            for row in b:
                for entry in row:
                    for word in entry.terms:
                        for name in word:
                            if name not in gens:
                                raise SchemaError(
                                    f"entry uses unknown generator {name!r}"
                                )

    # -- serialisation ----------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "generators": {
                name: {"xi": g.xi, "mon": [list(r) for r in g.mon.rows]}
                for name, g in self.generators.items()
            },
            "ranks": list(self.ranks),
            "boundaries": [
                [[entry.format() for entry in row] for row in b]
                for b in self.boundaries
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GroupRingPresentation":
        if not isinstance(data, dict):
            raise SchemaError("presentation document must be a JSON object")
        try:
            m = _json_int(data["m"], "m")
            raw_gens = data["generators"]
            ranks = data["ranks"]
            raw_bnds = data["boundaries"]
        except KeyError as exc:
            raise SchemaError(f"presentation is missing fields: {exc}") from None
        gens = {}
        for name, g in raw_gens.items():
            try:
                xi = _json_int(g["xi"], "xi")
                mon_rows = [[_json_int(x, "a monodromy entry") for x in row]
                            for row in g["mon"]]
            except (KeyError, TypeError) as exc:
                raise SchemaError(
                    f"generator {name!r} is malformed: {exc}"
                ) from None
            mon = Matrix(len(mon_rows), len(mon_rows[0]) if mon_rows else 0, mon_rows)
            gens[name] = Generator(name, xi, mon)
        boundaries = [
            [[GroupWordSum.parse(s) for s in row] for row in b] for b in raw_bnds
        ]
        return cls(m, gens, ranks, boundaries)

    @classmethod
    def from_json(cls, text: str) -> "GroupRingPresentation":
        try:
            data = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or too many digits
            raise SchemaError(f"invalid JSON: {exc}") from None
        return cls.from_json_dict(data)

    # -- the block substitution --------------------------------------

    def word_xi(self, word: tuple) -> int:
        return sum(self.generators[g].xi for g in word)

    def word_mon(self, word: tuple) -> Matrix:
        out = Matrix.identity(self.m)
        for name in word:
            out = self.generators[name].mon.mul(out, zero=0)
        return out

    def entry_block(self, entry: GroupWordSum) -> Matrix:
        """Inflate one scalar entry to an m x m polynomial block."""
        m = self.m
        acc = [[Poly.zero()] * m for _ in range(m)]
        for word, coeff in entry.terms.items():
            xi = self.word_xi(word)
            if xi > 0:
                raise PositiveXiWord(
                    f"word {' '.join(word)!r} has positive grade xi={xi}"
                )
            mon = self.word_mon(word)
            for r in range(m):
                for c in range(m):
                    v = mon[r, c]
                    if v:
                        acc[r][c] = acc[r][c] + Poly.monomial(coeff * v, -xi)
        return Matrix(m, m, acc)


def build_deformation(pres: GroupRingPresentation) -> ChainComplex:
    """Assemble the deformation complex over Z[t] and validate it."""
    m = pres.m
    matrices = []
    for i, b in enumerate(pres.boundaries, start=1):
        nr, nc = pres.ranks[i - 1] * m, pres.ranks[i] * m
        rows = [[Poly.zero()] * nc for _ in range(nr)]
        for br, row in enumerate(b):
            for bc, entry in enumerate(row):
                block = pres.entry_block(entry)
                for r in range(m):
                    for c in range(m):
                        rows[br * m + r][bc * m + c] = block[r, c]
        matrices.append(Matrix(nr, nc, rows))
    cx = ChainComplex([r * m for r in pres.ranks], matrices)
    cx.validate()
    return cx


def mapping_torus(b_rows) -> ChainComplex:
    """Two-term complex of a fiberwise twist: d_1 = I - t*B.

    B must be a square integer matrix with determinant +-1.
    """
    try:
        rows = [[_json_int(x, "a monodromy entry") for x in row] for row in b_rows]
    except TypeError:
        raise SchemaError("monodromy matrix must be a list of integer rows") from None
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise SchemaError("monodromy matrix must be square")
    if n == 0:
        raise SchemaError("monodromy matrix must be nonempty")
    d = int_det(rows)
    if d not in (1, -1):
        raise NonUnimodular(f"monodromy determinant is {d}, expected +-1")
    entries = [
        [
            Poly((1, -rows[i][j])) if i == j else Poly((0, -rows[i][j]))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return ChainComplex((n, n), [Matrix(n, n, entries)])


def specialize_at_class(
    cx: ChainComplex, a: AlgebraicNumberSpec, sign_convention: str = "xi"
) -> BettiVector:
    """Betti numbers after sending t to 1/a (convention "xi") or to a
    itself (convention "-xi"); transcendental a means the generic rank
    over the rational function field."""
    if sign_convention not in ("xi", "-xi"):
        raise SchemaError(f"unknown sign convention {sign_convention!r}")
    target = a.field_target(invert=(sign_convention == "xi"))
    return betti(cx, target)


TREFOIL_ALEXANDER = Poly((1, -1, 1))  # t^2 - t + 1


def alexander_block_complex(n: int) -> ChainComplex:
    """0 -> P^n -> P^n -> 0 with the trefoil polynomial on the diagonal."""
    if n < 1:
        raise SchemaError("block count must be positive")
    entries = [
        [TREFOIL_ALEXANDER if i == j else Poly.zero() for j in range(n)]
        for i in range(n)
    ]
    return ChainComplex((n, n), [Matrix(n, n, entries)])


def trefoil_model_complex(n: int) -> ChainComplex:
    """Direct-sum model of the surgered manifold in degrees 0..3.

    One (1 - t) edge models the circle factor carrying the one-form
    class; 2n boundaryless generators in degree 1 model the twisted
    knot-exterior homology, which survives every specialisation.
    """
    if n < 1:
        raise SchemaError("block count must be positive")
    row = [Poly((1, -1))] + [Poly.zero()] * (2 * n)
    d1 = Matrix(1, 2 * n + 1, [row])
    d2 = Matrix(2 * n + 1, 0, [[] for _ in range(2 * n + 1)])
    d3 = Matrix(0, 0, [])
    return ChainComplex((1, 2 * n + 1, 0, 0), [d1, d2, d3])


@dataclass(frozen=True)
class TrefoilSurgeryReport:
    n: int
    a: str
    h1_X_F: int
    h1_M_generic: int
    h1_M_twisted: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "h1_X_F": self.h1_X_F,
            "h1_M_generic": self.h1_M_generic,
            "h1_M_twisted": self.h1_M_twisted,
        }


def trefoil_surgery_example(n: int, a: AlgebraicNumberSpec) -> TrefoilSurgeryReport:
    """Twisted homology of the surgered manifold, assembled additively.

    The manifold splits along a sphere into the knot-exterior side X
    (where the one-form class restricts to zero) and a circle side
    carrying the class, so first homology is a sum of the two pieces:

    * h1_X_F twists X by the plane bundle with trefoil monodromy,
      one line for the root b of t^2 - t + 1 and one for 1/b;
    * h1_M_generic uses the rank-one twist by a alone: the X side is
      evaluated untwisted (at t = 1) and the circle side at 1/a;
    * h1_M_twisted combines the plane bundle on X with the twist by a
      on the circle side (two trivial lines there).
    """
    block = alexander_block_complex(n)
    root_field = NumberField(TREFOIL_ALEXANDER)
    inv_root_field = NumberField(TREFOIL_ALEXANDER.reversal().monic())
    h1_x_f = betti(block, root_field)[1] + betti(block, inv_root_field)[1]

    circle = mapping_torus([[1]])
    h1_circle_at_a = specialize_at_class(circle, a, "xi")[1]
    h1_x_untwisted = betti(block, NumberField(Poly((-1, 1))))[1]

    return TrefoilSurgeryReport(
        n=n,
        a=a.describe(),
        h1_X_F=h1_x_f,
        h1_M_generic=h1_x_untwisted + h1_circle_at_a,
        h1_M_twisted=h1_x_f + 2 * h1_circle_at_a,
    )


@dataclass(frozen=True)
class BottComponentData:
    """One critical component: its index and the Z/p homology
    dimensions of the component itself (orientation-twisted)."""

    index: int
    dims: tuple

    def __post_init__(self):
        if self.index < 0:
            raise SchemaError("component index must be nonnegative")
        if any(d < 0 for d in self.dims):
            raise SchemaError("component dimensions must be nonnegative")


@dataclass(frozen=True)
class BottCheckReport:
    holds: bool
    lhs: Poly
    rhs: Poly
    prime: int | None
    witness: Poly | None

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "lhs": list(self.lhs.coeffs),
            "rhs": list(self.rhs.coeffs),
            "prime": self.prime,
            "witness": list(self.witness.coeffs) if self.witness is not None else None,
        }


def bott_inequality_check(
    components, rhs: Poly, p: int | None = None
) -> BottCheckReport:
    """Compare the component-sum counting polynomial against a Betti
    polynomial ``rhs`` in the divisibility order.

    The left side is sum over components of t^(index + i) * dims[i].
    ``p`` records which prime field the component dimensions were taken
    over; it does not enter the arithmetic.
    """
    lhs = Poly.zero()
    for comp in components:
        for i, dim in enumerate(comp.dims):
            if dim:
                lhs = lhs + Poly.monomial(dim, comp.index + i)
    holds, witness = dominates(lhs, rhs)
    return BottCheckReport(holds=holds, lhs=lhs, rhs=rhs, prime=p, witness=witness)
