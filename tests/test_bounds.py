"""Zero-count bounds, unit classification and jump loci."""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import pytest

import formzeros.bounds
import formzeros.complexes
from formzeros import cli
from formzeros.bounds import (
    all_jump_points,
    classify,
    jump_points,
    select_prime,
    zero_bounds,
)
from formzeros.complexes import ChainComplex
from formzeros.deformation import mapping_torus, trefoil_model_complex
from formzeros.errors import (
    DirichletUnitRefusal,
    IsAlgebraicInteger,
    SchemaError,
)
from formzeros.fields import AlgebraicNumberSpec, NumberField, RationalFunctionField
from formzeros.generators import random_complex
from formzeros.matrix import Matrix
from formzeros.poly import Poly


# -- classification ---------------------------------------------------


def test_classify_dirichlet_unit():
    cls = classify(AlgebraicNumberSpec.from_minpoly_text("t^2 - t - 1"))
    assert cls.is_algebraic and cls.is_algebraic_integer and cls.is_dirichlet_unit


def test_classify_integer_not_unit():
    cls = classify(AlgebraicNumberSpec.from_minpoly_text("t - 2"))
    assert cls.is_algebraic_integer and not cls.is_dirichlet_unit


def test_classify_not_integer():
    cls = classify(AlgebraicNumberSpec.from_rational(Fraction(1, 2)))
    assert cls.is_algebraic and not cls.is_algebraic_integer
    assert not cls.is_dirichlet_unit


def test_classify_transcendental():
    cls = classify(AlgebraicNumberSpec.transcendental())
    assert not cls.is_algebraic
    assert cls.primitive_minpoly is None


def test_classify_inverse_symmetry():
    """a is a unit iff 1/a is: the minimal polynomial just reverses."""
    for text in ["t^2 - t - 1", "t - 2", "2*t - 1", "t^3 + 2*t - 1"]:
        a = AlgebraicNumberSpec.from_minpoly_text(text)
        assert classify(a).is_dirichlet_unit == classify(a.inverse()).is_dirichlet_unit


def test_classify_minus_one_is_unit():
    cls = classify(AlgebraicNumberSpec.from_rational(-1))
    assert cls.is_dirichlet_unit


# -- prime selection --------------------------------------------------


def test_select_prime_smallest_factor():
    assert select_prime(AlgebraicNumberSpec.from_rational(Fraction(1, 2))).p == 2
    assert select_prime(AlgebraicNumberSpec.from_rational(Fraction(2, 3))).p == 3
    assert select_prime(AlgebraicNumberSpec.from_minpoly_text("6*t^2 - t - 3")).p == 2
    assert select_prime(AlgebraicNumberSpec.from_minpoly_text("3*t^2 + t - 1")).p == 3


def test_select_prime_refuses_algebraic_integers():
    with pytest.raises(IsAlgebraicInteger):
        select_prime(AlgebraicNumberSpec.from_minpoly_text("t - 2"))


def test_select_prime_transcendental():
    sel = select_prime(AlgebraicNumberSpec.transcendental())
    assert sel.p == 2
    assert "admissible" in sel.reason


# -- bounds reports ---------------------------------------------------


def test_zero_bounds_model_complex():
    cx = trefoil_model_complex(3)
    rep = zero_bounds(cx, AlgebraicNumberSpec.from_rational(Fraction(1, 2)), 2)
    assert rep.betti == (0, 6, 0, 0)
    assert rep.weak == (Fraction(0), Fraction(3), Fraction(0), Fraction(0))
    assert rep.ceilings == (0, 3, 0, 0)
    assert rep.strong == (Fraction(0), Fraction(3), Fraction(-3), Fraction(3))
    assert rep.prime == 2


def test_zero_bounds_ceiling_rounds_up():
    cx = trefoil_model_complex(2)  # betti_1 = 4 away from t=1
    rep = zero_bounds(cx, AlgebraicNumberSpec.from_rational(Fraction(1, 2)), 3)
    assert rep.weak[1] == Fraction(4, 3)
    assert rep.ceilings[1] == 2


def test_zero_bounds_strong_recurrence():
    cx = trefoil_model_complex(4)
    rep = zero_bounds(cx, AlgebraicNumberSpec.from_rational(Fraction(1, 2)), 1)
    s = Fraction(0)
    for w, got in zip(rep.weak, rep.strong):
        s = w - s
        assert got == s


def test_zero_bounds_refuses_units():
    cx = trefoil_model_complex(1)
    unit = AlgebraicNumberSpec.from_minpoly_text("t^2 - t - 1")
    with pytest.raises(DirichletUnitRefusal) as exc:
        zero_bounds(cx, unit, 1)
    assert "t^2 - t - 1" in str(exc.value)


def test_zero_bounds_rejects_bad_rank():
    cx = trefoil_model_complex(1)
    with pytest.raises(SchemaError):
        zero_bounds(cx, AlgebraicNumberSpec.from_rational(2), 0)


def test_zero_bounds_algebraic_integer_uses_reciprocal_prime():
    cx = trefoil_model_complex(1)
    rep = zero_bounds(cx, AlgebraicNumberSpec.from_minpoly_text("t - 2"), 1)
    # 1/2 has minimal polynomial 2t - 1; its leading coefficient picks p
    assert rep.prime == 2
    assert "reciprocal" in rep.prime_reason


def test_zero_bounds_json_fractions_as_strings():
    cx = trefoil_model_complex(2)
    rep = zero_bounds(cx, AlgebraicNumberSpec.from_rational(Fraction(1, 2)), 3)
    doc = rep.to_json_dict()
    assert doc["weak"][1] == "4/3"
    assert doc["ceilings"][1] == 2


# -- jump loci --------------------------------------------------------


def test_jump_points_mapping_torus():
    cx = mapping_torus([[0, -1], [1, 1]])
    rep = jump_points(cx, 1)
    assert rep.generic == 0
    assert len(rep.factors) == 1
    f = rep.factors[0]
    assert f.factor == Poly((1, -1, 1))
    assert f.status == "confirmed" and f.value == 1


def test_jump_points_strip_tau_powers():
    # d1 = [t^2 - t^3]: the t-power carries no admissible jump, t = 1 does
    cx = ChainComplex((1, 1), [Matrix(1, 1, [[Poly((0, 0, 1, -1))]])])
    rep = jump_points(cx, 0)
    assert [f.factor for f in rep.factors] == [Poly((-1, 1))]


def test_all_jump_points_cover_every_degree():
    cx = mapping_torus([[0, -1], [1, 1]])
    reports = all_jump_points(cx)
    assert [r.degree for r in reports] == [0, 1]


def test_jump_points_degree_out_of_range():
    cx = mapping_torus([[1]])
    with pytest.raises(SchemaError):
        jump_points(cx, 5)


# -- all_jump_points shares per-complex facts ----------------------------

# Monic irreducibles with constant term +-1 (low degree first) for the
# companion blocks of unimodular monodromies.
_MONODROMY_BLOCKS = {
    1: [(1, 1), (-1, 1)],
    2: [(1, 1, 1), (1, -3, 1)],
    3: [(-1, -1, 0, 1)],
    4: [(1, 1, 1, 1, 1)],
}
# Block degrees of the jump-loci benchmark's mapping-torus operations.
_TORUS_PROFILES = [(1, 2), (1, 1, 1), (2, 2), (3, 2, 2), (4, 3, 1)]


def _conjugated_block_companion(degrees, rng):
    """``U C U^-1`` for C block companion of the listed factor degrees
    and U a product of integer elementary moves."""
    blocks = [_MONODROMY_BLOCKS[d][k % len(_MONODROMY_BLOCKS[d])] for k, d in enumerate(degrees)]
    n = sum(degrees)
    b = [[0] * n for _ in range(n)]
    off = 0
    for g in blocks:
        k = len(g) - 1
        for i in range(1, k):
            b[off + i][off + i - 1] = 1
        for i in range(k):
            b[off + i][off + k - 1] = -g[i]
        off += k
    for _ in range(n + 2):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        b[i] = [x + s * y for x, y in zip(b[i], b[j])]
        for row in b:
            row[j] -= s * row[i]
    return b


def _shared_factor_complex():
    """0 <- Z[t] <-[fg, 0]- Z[t]^2 <-[0, f]^T- Z[t] with f = t^2 + 1 and
    g = 2t - 1: f lowers both boundary ranks, so its root field confirms
    a jump in all three degrees, and g's in degrees 0 and 1."""
    f, g = Poly((1, 0, 1)), Poly((-1, 2))
    d1 = Matrix(1, 2, [[f * g, Poly.zero()]])
    d2 = Matrix(2, 1, [[Poly.zero()], [f]])
    return ChainComplex((1, 2, 1), [d1, d2])


def _differential_complexes():
    rng = random.Random(5)
    out = [mapping_torus(_conjugated_block_companion(p, rng)) for p in _TORUS_PROFILES]
    out.append(_shared_factor_complex())
    # seeds whose complexes have three or more terms and a jump factor
    for seed in (3, 9, 11, 17, 51):
        cx = random_complex(random.Random(seed), max_modules=5, max_rank=4)
        assert cx.top_degree >= 2
        out.append(cx)
    return out


@pytest.mark.parametrize("cx", _differential_complexes())
def test_all_jump_points_matches_per_degree_calls(cx):
    expected = [jump_points(cx, j) for j in range(cx.top_degree + 1)]
    assert all_jump_points(cx) == expected


def test_shared_factor_confirmed_in_every_degree():
    reports = all_jump_points(_shared_factor_complex())
    f, g = Poly((1, 0, 1)), Poly((-1, 2))
    assert [r.generic for r in reports] == [0, 0, 0]
    assert [{j.factor for j in r.factors} for r in reports] == [{f, g}, {f, g}, {f}]
    assert all(j.status == "confirmed" for r in reports for j in r.factors)


def _count_calls(monkeypatch, name):
    """Wrap ``formzeros.bounds.<name>`` and return the list of its
    positional arguments, one entry per call."""
    calls = []
    fn = getattr(formzeros.bounds, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(formzeros.bounds, name, counting)
    return calls


def _generic_ranks(calls):
    """The matrices of the generic-rank calls in a ``matrix_rank`` call list."""
    return [m for m, target in calls if isinstance(target, RationalFunctionField)]


@pytest.fixture()
def betti_ranks(monkeypatch):
    """``(matrix, target)`` of every ``matrix_rank`` call that
    ``complexes.betti`` makes."""
    calls = []
    rank = formzeros.complexes.matrix_rank

    def counting(m, target):
        calls.append((m, target))
        return rank(m, target)

    monkeypatch.setattr(formzeros.complexes, "matrix_rank", counting)
    return calls


@pytest.mark.parametrize(
    "cx, boundaries, root_fields",
    [
        (_shared_factor_complex(), 2, 2),
        (mapping_torus([[0, -1], [1, 1]]), 1, 1),
        # every boundary vanishes generically: no minor gcd, no candidate
        (ChainComplex((1, 1, 1), [Matrix.zeros(1, 1, Poly.zero())] * 2), 0, 0),
    ],
)
def test_all_jump_points_computes_shared_facts_once(monkeypatch, betti_ranks, cx,
                                                   boundaries, root_fields):
    cx = ChainComplex(cx.ranks, cx.boundaries)  # same boundaries, empty memo
    minor_gcds = _count_calls(monkeypatch, "minor_gcd")
    ranks = _count_calls(monkeypatch, "matrix_rank")
    splits = _count_calls(monkeypatch, "split_squarefree")
    all_jump_points(cx)
    assert len(minor_gcds) == boundaries
    # each boundary's generic rank once, and no generic Betti vector
    generic = _generic_ranks(ranks)
    assert len(generic) == len(ranks) == cx.top_degree
    assert {id(m) for m in generic} == {id(cx.boundary(i)) for i in range(1, cx.top_degree + 1)}
    # each root field ranks each boundary once
    assert all(isinstance(t, NumberField) for _, t in betti_ranks)
    assert len({t for _, t in betti_ranks}) == root_fields
    assert len(betti_ranks) == root_fields * cx.top_degree
    assert len({(id(m), t) for m, t in betti_ranks}) == len(betti_ranks)
    assert len({sq for sq, _ in splits}) == len(splits)


def test_lone_jump_points_calls_share_facts(monkeypatch, betti_ranks):
    """Separate ``jump_points`` calls on one complex compute no fact
    twice: the complex's memo carries them from call to call."""
    minor_gcds = _count_calls(monkeypatch, "minor_gcd")
    ranks = _count_calls(monkeypatch, "matrix_rank")
    splits = _count_calls(monkeypatch, "split_squarefree")
    cx = _shared_factor_complex()
    d1, d2 = cx.boundary(1), cx.boundary(2)
    per_call = []
    for j in range(cx.top_degree + 1):
        before = len(ranks)
        jump_points(cx, j)
        per_call.append([id(m) for m in _generic_ranks(ranks[before:])])
    # degree 1 reads both boundaries, but degree 0 has ranked d_1 already
    assert per_call == [[id(d1)], [id(d2)], []]
    assert [id(m) for m, _ in minor_gcds] == [id(d1), id(d2)]
    # the candidates f*g (degrees 0 and 1) and f (degree 2), split once each
    assert [sq for sq, _ in splits] == [Poly((-1, 2, -1, 2)), Poly((1, 0, 1))]
    # two root fields, each ranking both boundaries once
    assert len({t for _, t in betti_ranks}) == 2
    assert len({(id(m), t) for m, t in betti_ranks}) == len(betti_ranks) == 2 * 2
    # the same calls again compute nothing
    counts = (len(minor_gcds), len(ranks), len(splits), len(betti_ranks))
    again = [jump_points(cx, j) for j in range(cx.top_degree + 1)]
    assert (len(minor_gcds), len(ranks), len(splits), len(betti_ranks)) == counts
    assert again == all_jump_points(ChainComplex(cx.ranks, cx.boundaries))


def test_split_memo_keyed_by_max_factor_degree(monkeypatch):
    """A split under one factor-degree limit is not served for another."""
    splits = _count_calls(monkeypatch, "split_squarefree")
    cx = _shared_factor_complex()
    low = jump_points(cx, 2, max_factor_degree=0)
    high = jump_points(cx, 2)
    assert [sq for sq, _ in splits] == [Poly((1, 0, 1))] * 2
    assert [f.status for f in low.factors] == ["unconfirmed"]
    assert [f.status for f in high.factors] == ["confirmed"]


def test_jumps_match_benchmark_oracle(bench_workloads, tmp_path):
    """The first three jump-loci chunks of the benchmark (48 ops: jumps
    on rank-deficient complexes and mapping tori, with their Kronecker
    splits), checked against their closed-form expected outputs."""
    workload = bench_workloads.JumpLoci("201", str(tmp_path))
    for index in range(3):
        ops = workload.chunk(index)
        assert len(ops) == 16
        # the second pass reuses the loaded complexes and their Betti
        # vectors; one chunk's files fit the complex cache
        for _ in range(2):
            hits = cli._complex_from_text.cache_info().hits
            for op in ops:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(op.argv)
                assert (code, out.getvalue()) == op.expect, op.argv
        files = sum(1 for op in ops if op.path is not None)
        assert files and cli._complex_from_text.cache_info().hits - hits == files
