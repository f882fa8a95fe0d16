"""Seeded inputs and closed-form expected outputs for the three workloads.

Nothing here imports formzeros.  Every input is built so that its
answer is known by construction:

* complexes are direct sums of pieces ``Z[t] --f--> Z[t]`` and free
  summands, conjugated by unimodular base changes over Z[t] built from
  elementary moves.  A base change in degree k acts on the columns of
  d_k and, inversely, on the rows of d_{k+1}, so ``d o d = 0`` holds
  and every Betti number, jump factor and mod-p verdict follows from
  the list of pieces;
* mapping tori use ``B = U C U^-1`` with C block-companion of monic
  irreducibles with constant term +-1, so ``det(I - tB)`` is the
  product of their reversals;
* order-sweep results come from the alternating-partial-sum oracle in
  ``zpoly``.

Each workload produces its operations in chunks.  A chunk is drawn
from ``random.Random(f"{name}:{seed}:{chunk}")`` with a fixed mix of
operation kinds, so runs with different seeds do the same kinds of
work in the same proportions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import zpoly as zp

# Piece factors f for complexes: units, integer primes, and
# irreducibles of degree <= 4 (primitive, positive leading coefficient).
UNITS = [(1,), (-1,)]
CONSTANTS = [(2,), (3,)]
IRREDUCIBLES = [
    (-2, 1),  # t - 2
    (-1, 2),  # 2*t - 1
    (3, 1),  # t + 3
    (2, 3),  # 3*t + 2
    (1, 0, 1),  # t^2 + 1
    (-2, 0, 1),  # t^2 - 2
    (1, 1, 2),  # 2*t^2 + t + 1
    (1, -1, 1),  # t^2 - t + 1
    (2, -2, 3),  # 3*t^2 - 2*t + 2
    (-1, -1, 0, 1),  # t^3 - t - 1
    (-2, 0, 0, 1),  # t^3 - 2
    (3, 0, 0, 2),  # 2*t^3 + 3
    (-2, 0, 0, 0, 1),  # t^4 - 2
    (1, 0, 0, 0, 1),  # t^4 + 1
]
IRREDUCIBLES_BY_DEGREE = {
    d: [f for f in IRREDUCIBLES if zp.degree(f) == d] for d in range(1, 5)
}

# Monic irreducibles with constant term +-1, by degree, for
# companion blocks of unimodular monodromies.
MONODROMY_FACTORS = {
    1: [(-1, 1), (1, 1)],
    2: [(1, 0, 1), (1, -1, 1), (1, 1, 1), (-1, -1, 1), (1, -3, 1), (-1, 1, 1)],
    3: [(-1, -1, 0, 1), (1, -1, 0, 1), (-1, 0, 1, 1), (-1, -3, 0, 1)],
    4: [(1, 0, 0, 0, 1), (-1, -1, 0, 0, 1), (1, 1, 1, 1, 1), (1, 0, -1, 0, 1)],
}

# Twists a that are Dirichlet units: primitive minimal polynomials that
# are monic with constant term +-1.
UNIT_TWISTS = [(-1, -1, 1), (-1, 1, 1), (1, -3, 1), (-1, -1, 0, 1), (1, 0, 1), (1, 1)]

MOVE_COEFFS = [(1,), (-1,), (0, 1), (0, -1)]


@dataclass
class Op:
    """One benchmark operation and what it must produce.

    CLI operations carry ``argv`` and the expected ``(exit code,
    stdout)``; library operations carry their inputs in ``data``.
    """

    kind: str
    argv: list | None = None
    expect: tuple | None = None
    data: object = None
    path: str | None = None  # an input file of this operation alone


# -- complexes ---------------------------------------------------------


@dataclass
class PlantedComplex:
    """A conjugated direct sum with its pieces kept for the oracle."""

    ranks: list
    boundaries: list  # boundaries[k - 1] is d_k as rows of coefficient tuples
    free: list  # free summands per degree
    touching: list  # touching[k]: factors of the pieces with an end in degree k
    pieces: list  # (source degree, factor)

    def size(self) -> int:
        """Number of stored coefficients over all boundary entries."""
        return sum(len(e) for d in self.boundaries for row in d for e in row)

    def betti(self, vanishes) -> list:
        return [
            self.free[k] + sum(1 for f in self.touching[k] if vanishes(f))
            for k in range(len(self.ranks))
        ]

    def to_json(self) -> str:
        return json.dumps(
            {
                "ring": "Z[t]",
                "ranks": self.ranks,
                "boundaries": [
                    [[zp.fmt(e) for e in row] for row in d] for d in self.boundaries
                ],
            }
        )


def planted_complex(rng: random.Random, ntor: list, free: list, pool) -> PlantedComplex:
    """Direct sum of ``ntor[k]`` pieces in each boundary d_k (k >= 1)
    and ``free[k]`` free summands in degree k, then conjugated."""
    nmod = len(free)
    pieces = []
    basis = [[("free", k, i) for i in range(free[k])] for k in range(nmod)]
    for k in range(1, nmod):
        for _ in range(ntor[k]):
            f = pool(rng)
            pid = len(pieces)
            pieces.append((k, f))
            basis[k].append(("src", pid))
            basis[k - 1].append(("tgt", pid))
    for b in basis:
        rng.shuffle(b)
    ranks = [len(b) for b in basis]
    d = {}
    for k in range(1, nmod):
        m = [[() for _ in range(ranks[k])] for _ in range(ranks[k - 1])]
        for col, label in enumerate(basis[k]):
            if label[0] == "src":
                row = basis[k - 1].index(("tgt", label[1]))
                f = pieces[label[1]][1]
                m[row][col] = zp.neg(f) if rng.random() < 0.5 else f
        d[k] = m
    for k in range(nmod):
        n = ranks[k]
        if n < 2:
            continue
        for _ in range(n + 1):
            i, j = rng.sample(range(n), 2)
            c = rng.choice(MOVE_COEFFS)
            # basis change e_j -> e_j + c e_i in degree k
            if k + 1 < nmod:
                rows = d[k + 1]
                rows[i] = [zp.add(x, zp.mul(c, y)) for x, y in zip(rows[i], rows[j])]
            if k >= 1:
                for row in d[k]:
                    row[j] = zp.sub(row[j], zp.mul(c, row[i]))
    touching = [[] for _ in range(nmod)]
    for k, f in pieces:
        touching[k].append(f)
        touching[k - 1].append(f)
    return PlantedComplex(
        ranks=ranks,
        boundaries=[d[k] for k in range(1, nmod)],
        free=list(free),
        touching=touching,
        pieces=pieces,
    )


def draw_factor(rng: random.Random, kind):
    """A piece factor: ``"unit"``, ``"prime"`` (an integer prime) or an
    irreducible of the given degree."""
    if kind == "unit":
        return rng.choice(UNITS)
    if kind == "prime":
        return rng.choice(CONSTANTS)
    return rng.choice(IRREDUCIBLES_BY_DEGREE[kind])


def profile_pool(rng: random.Random, kinds):
    """Piece factors of the given kinds, in random order."""
    factors = iter([draw_factor(rng, kind) for kind in rng.sample(kinds, len(kinds))])
    return lambda rng: next(factors)


def typical_complex(rng: random.Random, ntor: list, free: list, kinds) -> PlantedComplex:
    """The median-sized of five planted complexes with these factor
    kinds.  How much the base changes inflate the entries varies a lot
    from draw to draw, and the cost of every operation on a complex
    follows it; keeping the middle draw narrows that spread."""
    draws = [planted_complex(rng, ntor, free, profile_pool(rng, kinds)) for _ in range(5)]
    return sorted(draws, key=lambda cx: cx.size())[2]


def _word_sum(rng: random.Random, poly: tuple) -> str:
    """Group-ring text for a scalar polynomial entry.

    Generators: g (grade -1, monodromy I), h (grade -1, monodromy -I)
    and u (grade 0, monodromy -I), so the word g^k is t^k and a leading
    h or u flips the sign.
    """
    terms = []
    for k, c in enumerate(poly):
        if c == 0:
            continue
        style = rng.random()
        if k >= 1 and style < 0.3:
            coef, word = -c, ["h"] + ["g"] * (k - 1)
        elif style < 0.5:
            coef, word = -c, ["u"] + ["g"] * k
        else:
            coef, word = c, ["g"] * k
        terms.append((coef, word))
    if not terms:
        return "0"
    rng.shuffle(terms)
    parts = []
    for coef, word in terms:
        mag = abs(coef)
        if not word:
            body = str(mag)
        elif mag == 1:
            body = " ".join(word)
        else:
            body = f"{mag} " + " ".join(word)
        if not parts:
            parts.append(f"-{body}" if coef < 0 else body)
        else:
            parts.append(f"- {body}" if coef < 0 else f"+ {body}")
    return " ".join(parts)


def presentation_json(rng: random.Random, cx: PlantedComplex, m: int) -> str:
    ident = [[int(i == j) for j in range(m)] for i in range(m)]
    minus = [[-x for x in row] for row in ident]
    return json.dumps(
        {
            "m": m,
            "generators": {
                "g": {"xi": -1, "mon": ident},
                "h": {"xi": -1, "mon": minus},
                "u": {"xi": 0, "mon": minus},
            },
            "ranks": cx.ranks,
            "boundaries": [
                [[_word_sum(rng, e) for e in row] for row in d] for d in cx.boundaries
            ],
        }
    )


# -- twists ------------------------------------------------------------


@dataclass(frozen=True)
class Twist:
    """A twist number a, by the primitive minimal polynomial of a."""

    mp: tuple
    spec: str

    @property
    def inverse_mp(self) -> tuple:
        return zp.primitive(zp.reversal(self.mp))

    @property
    def is_integer(self) -> bool:
        return self.mp[-1] == 1

    @property
    def is_unit(self) -> bool:
        return self.is_integer and abs(self.mp[0]) == 1


def _twist_from_mp(mp: tuple) -> Twist:
    if zp.degree(mp) == 1:
        return Twist(mp, f"rat:{Fraction(-mp[0], mp[1])}")
    return Twist(mp, "root:" + zp.fmt(mp))


def rational_twist(rng: random.Random) -> Twist:
    while True:
        v = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))
        if v.denominator != 1:
            return _twist_from_mp((-v.numerator, v.denominator))


def algebraic_twist(rng: random.Random, deg: int) -> Twist:
    while True:
        lead = rng.randint(2, 5)
        mp = tuple(rng.randint(-5, 5) for _ in range(deg)) + (lead,)
        if mp[0] == 0 or zp.content(mp) != 1 or not zp.is_irreducible_low(mp):
            continue
        return _twist_from_mp(mp)


def jump_twist(rng: random.Random, factors) -> Twist | None:
    """A twist a with 1/a a root of one of the planted factors."""
    choices = []
    for f in factors:
        if zp.degree(f) < 1:
            continue
        mp = zp.primitive(zp.reversal(f))
        if mp[-1] == 1 and abs(mp[0]) == 1:
            continue  # a Dirichlet unit; those are drawn separately
        choices.append(mp)
    if not choices:
        return None
    return _twist_from_mp(rng.choice(sorted(set(choices))))


def unit_twist(rng: random.Random) -> Twist:
    return _twist_from_mp(rng.choice(UNIT_TWISTS))


# -- closed-form expected outputs -------------------------------------


def _dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _vanishes_at_inverse(tw: Twist):
    m_inv = tw.inverse_mp
    return lambda f: zp.divides_root(f, m_inv)


def _vanishes_mod_p(p: int):
    return lambda f: (f[0] if f else 0) % p == 0


def expected_bounds(cx: PlantedComplex, m: int, tw: Twist, dim_e: int) -> tuple:
    if tw.is_unit:
        return 3, ""
    betti = [m * b for b in cx.betti(_vanishes_at_inverse(tw))]
    weak = [Fraction(b, dim_e) for b in betti]
    strong = []
    s = Fraction(0)
    for w in weak:
        s = w - s
        strong.append(str(s))
    m_inv = tw.inverse_mp
    if zp.degree(m_inv) == 1:
        target = f"evaluation at t = {Fraction(-m_inv[0], m_inv[1])}"
    else:
        target = "root field of " + zp.fmt(zp.monic(m_inv))
    if tw.is_integer:
        lead = m_inv[-1]
        reason = f"smallest prime dividing the leading coefficient {lead} (via the reciprocal)"
    else:
        lead = tw.mp[-1]
        reason = f"smallest prime dividing the leading coefficient {lead}"
    p = zp.smallest_prime_factor(lead)
    if zp.degree(tw.mp) == 1:
        described = f"rational {Fraction(-tw.mp[0], tw.mp[1])}"
    else:
        described = "root of " + zp.fmt(tw.mp)
    doc = {
        "a": described,
        "classification": {
            "is_algebraic": True,
            "is_algebraic_integer": tw.is_integer,
            "is_dirichlet_unit": False,
            "primitive_minpoly": zp.fmt(tw.mp),
        },
        "dim_e": dim_e,
        "betti": betti,
        "target": target,
        "weak": [str(w) for w in weak],
        "ceilings": [-((-b) // dim_e) for b in betti],
        "strong": strong,
        "prime": p,
        "prime_reason": reason,
        "ideal_at_inverse": f"({zp.fmt(m_inv)})",
        "boundary_ideal": f"({p}, t)",
    }
    return 0, _dump(doc)


def expected_compare(cx: PlantedComplex, m: int, tw: Twist) -> tuple:
    if tw.is_integer:
        return 3, ""  # no prime p has (minimal polynomial of 1/a) inside (p, t)
    p = zp.smallest_prime_factor(tw.mp[-1])
    modp = zp.norm(m * b for b in cx.betti(_vanishes_mod_p(p)))
    at_inv = zp.norm(m * b for b in cx.betti(_vanishes_at_inverse(tw)))
    holds, w = zp.alternating_witness(modp, at_inv)
    doc = {
        "holds": holds,
        "poincare_modp": list(modp),
        "poincare_at_inverse": list(at_inv),
        "ideal_at_inverse": f"({zp.fmt(tw.inverse_mp)})",
        "boundary_ideal": f"({p}, t)",
        "witness": list(w) if w is not None else None,
    }
    return (0 if holds else 1), _dump(doc)


def _jump_reports(generic: list, jumps: dict, degrees) -> list:
    """Reports for each degree; ``jumps[deg]`` maps each distinct
    primitive factor to its Betti number at its root field."""
    reports = []
    for deg in degrees:
        factors = sorted(jumps[deg], key=lambda f: (zp.degree(f), f))
        cand = (1,)
        for f in factors:
            cand = zp.mul(cand, f)
        reports.append(
            {
                "degree": deg,
                "generic": generic[deg],
                "candidate": zp.fmt(cand),
                "factors": [
                    {
                        "factor": zp.fmt(f),
                        "degree": zp.degree(f),
                        "status": "confirmed",
                        "value": jumps[deg][f],
                    }
                    for f in factors
                ],
            }
        )
    return reports


def expected_jumps(cx: PlantedComplex) -> tuple:
    """``jumps`` on a complex: a degree-j candidate comes from d_j and
    d_{j+1}, i.e. from the pieces touching degree j."""
    generic = cx.betti(lambda f: False)
    jumps = {}
    for deg in range(len(cx.ranks)):
        found = {}
        for f in cx.touching[deg]:
            if zp.degree(f) >= 1:
                pf = zp.primitive(f)
                found[pf] = cx.betti(lambda g, pf=pf: zp.divides_root(g, pf))[deg]
        jumps[deg] = found
    return 0, _dump({"reports": _jump_reports(generic, jumps, range(len(cx.ranks)))})


def expected_mapping_torus(b: list, blocks: list) -> tuple:
    n = len(b)
    entries = [
        [zp.fmt(zp.norm((int(i == j), -b[i][j]))) for j in range(n)] for i in range(n)
    ]
    # at a root of rev(g) the kernel of I - tB has one dimension per
    # companion block with that g
    mult = {}
    for g in blocks:
        f = zp.primitive(zp.reversal(g))
        mult[f] = mult.get(f, 0) + 1
    doc = {
        "complex": {"ring": "Z[t]", "ranks": [n, n], "boundaries": [entries]},
        "jumps": _jump_reports([0, 0], {0: mult, 1: mult}, (0, 1)),
    }
    return 0, _dump(doc)


def unimodular_conjugate(rng: random.Random, c: list, moves: int) -> list:
    """``U C U^-1`` for U a product of integer elementary moves."""
    b = [row[:] for row in c]
    n = len(b)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        b[i] = [x + s * y for x, y in zip(b[i], b[j])]
        for row in b:
            row[j] -= s * row[i]
    return b


def block_companion(blocks: list) -> list:
    n = sum(zp.degree(g) for g in blocks)
    c = [[0] * n for _ in range(n)]
    off = 0
    for g in blocks:
        k = zp.degree(g)
        for i in range(1, k):
            c[off + i][off + i - 1] = 1
        for i in range(k):
            c[off + i][off + k - 1] = -g[i]
        off += k
    return c


# -- workloads ---------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: str, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.digest = hashlib.sha256()

    def rng(self, label) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{label}")

    def write(self, fname: str, text: str) -> str:
        path = os.path.join(self.workdir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def note(self, index, ops: list) -> list:
        """Digest the first chunk, input files included, which
        identifies the seed's inputs whatever the run length."""
        if index != 0:
            return ops
        for op in ops:
            argv = list(op.argv or ())
            for i, arg in enumerate(argv):
                if arg.startswith(self.workdir):
                    argv[i] = os.path.basename(arg)
                    with open(arg, "rb") as fh:
                        self.digest.update(fh.read())
            self.digest.update(repr((op.kind, argv, op.data)).encode())
        return ops


class TwistSweep(Workload):
    """``bounds`` and ``compare-ideals`` for many twists against a few
    complexes, two given as complex JSON and two as presentations.

    Each chunk draws its own complexes and runs 20 twists, both
    commands each, against every one of them; sharing a complex across
    40 operations is what a per-complex cache would exploit, and
    drawing new complexes per chunk keeps one unlucky draw from setting
    a whole run's figures.
    """

    name = "twist-sweep"
    # (input flag, fibre rank m, pieces per boundary, free summands per
    # degree, kinds of the piece factors); fixing the kinds keeps the
    # cost of a complex from swinging with the draw
    SHAPES = [
        ("-c", 1, [None, 3, 3, 2], [1, 1, 1, 1], ("unit", "unit", "prime", 1, 1, 2, 2, 3)),
        ("-c", 1, [None, 3, 2], [2, 1, 1], ("unit", "prime", 1, 2, 3)),
        ("-p", 2, [None, 1, 2], [1, 0, 1], ("unit", 1, 2)),
        ("-p", 1, [None, 2, 3, 1], [1, 1, 0, 1], ("unit", "unit", "prime", 1, 2, 3)),
    ]

    def complexes(self, rng: random.Random, index: int) -> list:
        out = []
        for idx, (flag, m, ntor, free, kinds) in enumerate(self.SHAPES):
            cx = typical_complex(rng, ntor, free, kinds)
            text = cx.to_json() if flag == "-c" else presentation_json(rng, cx, m)
            path = self.write(f"{self.name}-{self.seed}-{index}-{idx}.json", text)
            out.append((flag, path, m, cx))
        return out

    def twists(self, rng: random.Random, cx: PlantedComplex) -> list:
        planted = [f for _, f in cx.pieces]
        out = [unit_twist(rng) for _ in range(2)]
        for _ in range(3):
            out.append(jump_twist(rng, planted) or rational_twist(rng))
        out += [rational_twist(rng) for _ in range(7)]
        out += [algebraic_twist(rng, 2) for _ in range(4)]
        out += [algebraic_twist(rng, 3) for _ in range(4)]
        return out

    def chunk(self, index: int) -> list:
        rng = self.rng(index)
        ops = []
        for flag, path, m, cx in self.complexes(rng, index):
            for tw in self.twists(rng, cx):
                dim_e = rng.choice((1, 1, 2))
                argv = ["--format", "json", "bounds", flag, path, "--a", tw.spec]
                if dim_e != 1:
                    argv += ["--dim-e", str(dim_e)]
                ops.append(Op("bounds", argv, expected_bounds(cx, m, tw, dim_e)))
                argv = ["--format", "json", "compare-ideals", flag, path, "--a", tw.spec]
                ops.append(Op("compare-ideals", argv, expected_compare(cx, m, tw)))
        rng.shuffle(ops)
        return self.note(index, ops)

    def warmup(self) -> list:
        return self.chunk(0)[:4]


class JumpLoci(Workload):
    """``jumps`` on rank-deficient n x n complexes and ``example
    mapping-torus`` on conjugated block-companion monodromies; every
    operation has its own input."""

    name = "jump-loci"
    # Degree profiles fix the cost of each slot in a chunk, so seeds
    # differ in the polynomials drawn but not in how hard they are.
    # A jumps slot lists the degrees of its pieces' factors (0 for a
    # unit) in an n x n complex whose generic rank is the number of
    # pieces; with unit pieces only there are no jump loci, the minor
    # gcd reaches 1 and its enumeration stops early.  A mapping-torus
    # slot lists the degrees of its companion blocks.  The small jumps
    # slots and the n = 4 torus cost about the same and fill the middle
    # of the cost order, so the median latency falls inside that group
    # rather than in a gap between two.
    JUMP_SLOTS = [
        (6, (0, 0, 0)),
        (5, (1, 1)), (5, (1, 2)), (5, (2, 1)), (5, (2, 2)), (5, (1, 3)),
        (5, (2, 3)), (6, (1, 4)), (6, (1, 1, 3)), (6, (1, 2, 2)), (7, (1, 2, 3)),
    ]
    TORUS_SLOTS = [(1, 2), (1, 1, 1), (2, 2), (3, 2, 2), (4, 3, 1)]

    def jumps_op(self, rng: random.Random, label: str, n: int, degrees) -> Op:
        kinds = ["unit" if d == 0 else d for d in degrees]
        cx = typical_complex(rng, [None, len(kinds)], [n - len(kinds)] * 2, kinds)
        path = self.write(f"{self.name}-{self.seed}-{label}.json", cx.to_json())
        argv = ["--format", "json", "jumps", "-c", path]
        return Op("jumps", argv, expected_jumps(cx), path=path)

    def torus_op(self, rng: random.Random, degrees) -> Op:
        blocks = [rng.choice(MONODROMY_FACTORS[d]) for d in degrees]
        rng.shuffle(blocks)
        n = sum(degrees)
        b = unimodular_conjugate(rng, block_companion(blocks), n + 2)
        argv = ["--format", "json", "example", "mapping-torus", "--matrix", json.dumps(b)]
        return Op("mapping-torus", argv, expected_mapping_torus(b, blocks))

    def chunk(self, index: int) -> list:
        rng = self.rng(index)
        ops = [
            self.jumps_op(rng, f"{index}-{i}", n, degrees)
            for i, (n, degrees) in enumerate(self.JUMP_SLOTS)
        ]
        ops += [self.torus_op(rng, degrees) for degrees in self.TORUS_SLOTS]
        rng.shuffle(ops)
        return self.note(index, ops)

    def warmup(self) -> list:
        rng = self.rng("warmup")
        return [self.jumps_op(rng, "warmup", 5, (1, 2)), self.torus_op(rng, (1, 2))]


class OrderSweep(Workload):
    """``complexes.dominates`` on every count vector below per-degree
    entry caps against one Poincare polynomial, plus component-sum
    checks, called from the library."""

    name = "order-sweep"
    # (degree, entry cap); a cap of None draws a cap of 1 or 2 for each
    # degree, which spreads the vector counts (16 to 729) smoothly so the
    # median latency does not sit in a gap between two sizes and jump
    # when the host's speed shifts.  The full degree-5 sweep (729
    # vectors) is a tenth of the operations, so the p95 latency falls
    # inside that group.
    SLOTS = [(3, None), (4, None), (5, None)] * 3 + [(5, 2)]
    COMPONENT_LISTS = 12

    def order_op(self, rng: random.Random, deg: int, cap) -> Op:
        target = tuple(rng.randint(0, 3) for _ in range(deg)) + (rng.randint(1, 3),)
        caps = [cap or rng.randint(1, 2) for _ in range(deg + 1)]
        vectors = list(itertools.product(*(range(c + 1) for c in caps)))
        comps = []
        for _ in range(self.COMPONENT_LISTS):
            comps.append(
                [
                    (rng.randint(0, 3), tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))
                    for _ in range(rng.randint(1, 4))
                ]
            )
        return Op("order", data=(target, vectors, comps))

    def chunk(self, index: int) -> list:
        rng = self.rng(index)
        ops = [self.order_op(rng, deg, cap) for deg, cap in self.SLOTS]
        rng.shuffle(ops)
        return self.note(index, ops)

    def warmup(self) -> list:
        rng = self.rng("warmup")
        return [self.order_op(rng, 3, None), self.order_op(rng, 4, None)]


def expected_order(data) -> list:
    target, vectors, comps = data
    out = [zp.alternating_witness(v, target) for v in vectors]
    for comp in comps:
        lhs = [0] * max(index + len(dims) for index, dims in comp)
        for index, dims in comp:
            for i, dim in enumerate(dims):
                lhs[index + i] += dim
        lhs = zp.norm(lhs)
        holds, w = zp.alternating_witness(lhs, target)
        out.append((holds, lhs, w))
    return out


WORKLOADS = {cls.name: cls for cls in (TwistSweep, JumpLoci, OrderSweep)}
