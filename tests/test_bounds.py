"""Zero-count bounds, unit classification and jump loci."""

from __future__ import annotations

from fractions import Fraction

import pytest

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
from formzeros.fields import AlgebraicNumberSpec
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
