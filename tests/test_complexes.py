"""Chain complexes over Z[t]: validation, Betti numbers, the
divisibility order, and the ideal-containment check."""

from __future__ import annotations

import json
import random

import pytest

import formzeros.complexes
from formzeros.complexes import (
    ChainComplex,
    betti,
    dominates,
    dominates_alternating,
    euler_characteristic,
    poincare,
    specialization_order_check,
)
from formzeros.errors import (
    ComplexAxiomViolation,
    PreconditionViolation,
    SchemaError,
)
from formzeros.fields import (
    AlgebraicNumberSpec,
    NumberField,
    PrimeField,
    Rationals,
    RationalFunctionField,
)
from formzeros.generators import random_complex
from formzeros.matrix import Matrix
from formzeros.poly import Poly


def _cx(ranks, boundaries):
    mats = []
    for i, rows in enumerate(boundaries, start=1):
        nr, nc = ranks[i - 1], ranks[i]
        mats.append(Matrix(nr, nc, [[Poly.parse(e) for e in row] for row in rows]))
    return ChainComplex(tuple(ranks), mats)


def test_shape_mismatch_rejected():
    square = Matrix(1, 1, [[Poly((0, 1))]])
    with pytest.raises(SchemaError):
        ChainComplex((1, 2), [square])


def test_d_squared_checked():
    # d1*d2 = (t)*(t) is nonzero
    bad = _cx((1, 1, 1), [[["t"]], [["t"]]])
    with pytest.raises(ComplexAxiomViolation):
        bad.validate()


def test_valid_complex_passes():
    good = _cx((1, 2, 1), [[["t - 1", "0"]], [["0"], ["t + 1"]]])
    good.validate()


def test_boundary_off_end_shapes():
    cx = _cx((2, 1), [[["t"], ["1"]]])
    assert cx.boundary(0).nrows == 0 and cx.boundary(0).ncols == 2
    assert cx.boundary(2).nrows == 1 and cx.boundary(2).ncols == 0


def test_json_round_trip():
    cx = _cx((1, 2, 1), [[["t - 1", "0"]], [["0"], ["t + 1"]]])
    text = cx.to_json()
    back = ChainComplex.from_json(text)
    assert back.ranks == cx.ranks
    assert all(back.boundary(i) == cx.boundary(i) for i in (1, 2))
    # documents carry the ring tag and reject unknown rings
    doc = json.loads(text)
    assert doc["ring"] == "Z[t]"
    doc["ring"] = "Z[x,y]"
    with pytest.raises(SchemaError):
        ChainComplex.from_json_dict(doc)


def test_from_json_validates_d_squared():
    doc = {
        "ring": "Z[t]",
        "ranks": [1, 1, 1],
        "boundaries": [[["t"]], [["t"]]],
    }
    with pytest.raises(ComplexAxiomViolation):
        ChainComplex.from_json_dict(doc)


def test_betti_rank_nullity_known():
    # d1 = [t - 1]: generic rank 1, so generic Betti numbers vanish
    cx = _cx((1, 1), [[["t - 1"]]])
    rff = RationalFunctionField()
    assert betti(cx, rff).entries == (0, 0)
    at_one = NumberField(Poly((-1, 1)))
    assert betti(cx, at_one).entries == (1, 1)
    assert betti(cx, Rationals()).entries == (0, 0)
    assert betti(cx, PrimeField(3)).entries == (0, 0)


def test_poincare_polynomial():
    cx = _cx((1, 1), [[["t - 1"]]])
    assert poincare(cx, NumberField(Poly((-1, 1)))) == Poly((1, 1))
    assert poincare(cx, RationalFunctionField()) == Poly.zero()


def test_euler_characteristic_target_independent():
    cx = _cx((1, 2, 1), [[["t - 1", "0"]], [["0"], ["t + 1"]]])
    targets = [RationalFunctionField(), Rationals(), PrimeField(2),
               NumberField(Poly((-1, 1))), NumberField(Poly((1, 1, 1)))]
    vals = {euler_characteristic(cx, t) for t in targets}
    assert vals == {sum((-1) ** i * r for i, r in enumerate(cx.ranks))}


# -- the per-target Betti memo ---------------------------------------


@pytest.fixture()
def rank_calls(monkeypatch):
    """Targets of every ``matrix_rank`` call that ``betti`` makes."""
    calls = []
    rank = formzeros.complexes.matrix_rank

    def counting(m, target):
        calls.append(target)
        return rank(m, target)

    monkeypatch.setattr(formzeros.complexes, "matrix_rank", counting)
    return calls


@pytest.mark.parametrize("make", [
    lambda: NumberField(Poly.parse("t^2 - t + 1")),
    lambda: PrimeField(5),
])
def test_betti_memo_shared_by_equal_targets(rank_calls, make):
    cx = _cx((1, 2, 1), [[["t - 1", "0"]], [["0"], ["t + 1"]]])
    first, second = make(), make()
    assert first is not second and first == second
    assert betti(cx, first) == betti(cx, second)
    assert len(rank_calls) == cx.top_degree


@pytest.mark.parametrize("targets, expected", [
    ((PrimeField(2), PrimeField(3)), ((1, 1), (0, 0))),
    ((NumberField(Poly.parse("t - 1")), NumberField(Poly.parse("t - 2"))),
     ((0, 0), (1, 1))),
])
def test_betti_memo_keeps_distinct_targets_apart(rank_calls, targets, expected):
    # d_1 = [2t - 4] vanishes mod 2 and at t = 2 only
    cx = _cx((1, 1), [[["2*t - 4"]]])
    for _ in range(2):
        assert tuple(betti(cx, t).entries for t in targets) == expected
    assert len(rank_calls) == 2 * cx.top_degree


@pytest.mark.parametrize("seed", range(6))
def test_betti_memo_matches_fresh_computation(seed):
    rng = random.Random(seed)
    cx = random_complex(rng, max_modules=4, max_rank=4)
    targets = [RationalFunctionField(), Rationals(), PrimeField(2), PrimeField(3),
               NumberField(Poly.parse("t - 1")), NumberField(Poly.parse("t^2 + 1"))]
    for target in targets + targets[::-1]:
        memoised = betti(cx, target)
        fresh = betti(ChainComplex(cx.ranks, cx.boundaries), target)
        assert memoised == fresh


def test_betti_memo_is_bounded(rank_calls):
    cx = _cx((1, 1), [[["t - 1"]]])
    extra = 3
    for k in range(formzeros.complexes.MEMO_SIZE + extra):
        betti(cx, NumberField(Poly((-k, 1))))
    assert len(cx._memo) == formzeros.complexes.MEMO_SIZE
    # the oldest entries were dropped and are computed again
    betti(cx, NumberField(Poly((0, 1))))
    assert len(rank_calls) == formzeros.complexes.MEMO_SIZE + extra + 1


# -- the divisibility order ------------------------------------------


def test_dominates_reflexive_with_zero_witness():
    p = Poly((1, 2, 1))
    holds, w = dominates(p, p)
    assert holds and w == Poly.zero()


def test_dominates_known_pairs():
    # (1+t)^2 over 0, witness 1+t
    holds, w = dominates(Poly((1, 2, 1)), Poly.zero())
    assert holds and w == Poly((1, 1))
    # t+1 over 1 fails: the tail sum goes negative
    holds, w = dominates(Poly((1, 1)), Poly((1,)))
    assert not holds and w is None
    # difference (1+t)*2t = 2t + 2t^2
    holds, w = dominates(Poly((0, 3, 2)), Poly((0, 1)))
    assert holds and w == Poly((0, 2))


def test_dominates_routes_agree_random():
    rng = random.Random(515)
    for _ in range(300):
        p = Poly([rng.randint(0, 4) for _ in range(rng.randint(0, 5))])
        q = Poly([rng.randint(0, 4) for _ in range(rng.randint(0, 5))])
        assert dominates(p, q)[0] == dominates_alternating(p, q)


def test_dominates_witness_certifies():
    rng = random.Random(516)
    lam = Poly((1, 1))
    for _ in range(200):
        p = Poly([rng.randint(0, 4) for _ in range(rng.randint(0, 5))])
        q = Poly([rng.randint(0, 4) for _ in range(rng.randint(0, 5))])
        holds, w = dominates(p, q)
        if holds:
            assert all(c >= 0 for c in w.coeffs)
            assert p - q == lam * w


# -- ideal containment ------------------------------------------------


def test_order_check_known_case():
    cx = _cx((1, 1), [[["t - 2"]]])
    a = AlgebraicNumberSpec.from_rational(2).inverse()  # a = 1/2, 1/a = 2
    rep = specialization_order_check(cx, a, 2)
    assert rep.holds
    assert rep.poincare_at_inverse == Poly((1, 1))
    assert rep.poincare_modp == Poly((1, 1))
    assert rep.witness == Poly.zero()
    assert rep.ideal_at_inverse == "(t - 2)"
    assert rep.boundary_ideal == "(2, t)"


def test_order_check_rejects_bad_prime():
    cx = _cx((1, 1), [[["t - 2"]]])
    a = AlgebraicNumberSpec.from_rational(2).inverse()
    with pytest.raises(PreconditionViolation):
        specialization_order_check(cx, a, 5)


def test_order_check_transcendental_vacuous_ideal():
    cx = _cx((1, 1), [[["t - 2"]]])
    a = AlgebraicNumberSpec.transcendental()
    rep = specialization_order_check(cx, a, 7)
    assert rep.holds
    assert rep.ideal_at_inverse == "(0)"


def test_order_check_json_dict():
    cx = _cx((1, 1), [[["t - 2"]]])
    a = AlgebraicNumberSpec.from_rational(2).inverse()
    doc = specialization_order_check(cx, a, 2).to_json_dict()
    assert doc["holds"] is True
    assert doc["poincare_modp"] == [1, 1]
