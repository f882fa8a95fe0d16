from __future__ import annotations

import json

import pytest

from formzeros.complexes import betti
from formzeros.deformation import (
    BottComponentData,
    Generator,
    GroupRingPresentation,
    GroupWordSum,
    bott_inequality_check,
    build_deformation,
    mapping_torus,
    specialize_at_class,
    trefoil_model_complex,
    trefoil_surgery_example,
)
from formzeros.errors import (
    NonUnimodular,
    PositiveXiWord,
    SchemaError,
)
from formzeros.fields import (
    AlgebraicNumberSpec,
    NumberField,
    PrimeField,
    Rationals,
    RationalFunctionField,
)
from formzeros.matrix import Matrix
from formzeros.poly import Poly


def _gen(name, xi, mon_rows):
    m = Matrix(len(mon_rows), len(mon_rows[0]), mon_rows)
    return Generator(name, xi, m)


# -- group word sums --------------------------------------------------


def test_word_sum_parse_and_format():
    s = GroupWordSum.parse("2*g h - k + 1")
    assert s.format() == "1 - k + 2 g h"
    assert GroupWordSum.parse(s.format()).terms == s.terms
    assert GroupWordSum.parse("0").terms == {}
    assert GroupWordSum.parse("1").terms == {(): 1}


def test_presentation_rejects_unknown_generator_in_entry():
    with pytest.raises(SchemaError):
        GroupRingPresentation(
            1,
            {"g": _gen("g", -1, [[1]])},
            (1, 1),
            [[[GroupWordSum.parse("g + q")]]],
        )


def test_word_sum_cancellation():
    s = GroupWordSum.parse("g - g")
    assert s.terms == {}


# -- presentations and the block substitution -------------------------


def test_presentation_rejects_positive_xi():
    with pytest.raises(PositiveXiWord):
        GroupRingPresentation(
            1,
            {"g": _gen("g", 1, [[1]])},
            (1, 1),
            [[[GroupWordSum.parse("g")]]],
        )


def test_presentation_rejects_nonunimodular_monodromy():
    with pytest.raises(NonUnimodular):
        GroupRingPresentation(
            1,
            {"g": _gen("g", -1, [[2]])},
            (1, 1),
            [[[GroupWordSum.parse("g")]]],
        )


def test_block_substitution_is_antimultiplicative():
    """Mon(gh) must be Mon(h)Mon(g): loop composition reverses words."""
    A = [[1, 1], [0, 1]]
    B = [[1, 0], [1, 1]]
    pres = GroupRingPresentation(
        2,
        {"g": _gen("g", -1, A), "h": _gen("h", 0, B)},
        (2, 2),
        [[[GroupWordSum.parse("g h"), GroupWordSum.parse("0")],
          [GroupWordSum.parse("0"), GroupWordSum.parse("g h")]]],
    )
    block = pres.entry_block(GroupWordSum.parse("g h"))
    # xi(gh) = -1, so the block is t * (B . A)
    BA = ((Poly((0, 1)), Poly((0, 1))), (Poly((0, 1)), Poly((0, 2))))
    assert block.rows == BA


def test_build_deformation_shapes_and_validity():
    pres = GroupRingPresentation(
        1,
        {"g": _gen("g", -1, [[1]])},
        (1, 2, 1),
        [
            [[GroupWordSum.parse("1 - g"), GroupWordSum.parse("g - 1")]],
            [[GroupWordSum.parse("1 - g")], [GroupWordSum.parse("1 - g")]],
        ],
    )
    cx = build_deformation(pres)
    assert cx.ranks == (1, 2, 1)
    cx.validate()
    # xi(g) = -1 turns g into t * Mon(g) = t
    assert cx.boundary(1)[0, 0] == Poly((1, -1))


def test_presentation_json_round_trip():
    pres = GroupRingPresentation(
        2,
        {"g": _gen("g", -2, [[0, -1], [1, 1]])},
        (2, 2),
        [[[GroupWordSum.parse("1 - g"), GroupWordSum.parse("0")],
          [GroupWordSum.parse("0"), GroupWordSum.parse("1 - g")]]],
    )
    back = GroupRingPresentation.from_json(json.dumps(pres.to_json_dict()))
    assert back.m == 2
    assert back.generators["g"].xi == -2
    assert build_deformation(back).boundary(1) == build_deformation(pres).boundary(1)


# -- mapping torus ----------------------------------------------------


def test_mapping_torus_known_determinant():
    cx = mapping_torus([[0, -1], [1, 1]])
    cx.validate()
    assert cx.ranks == (2, 2)
    rff = RationalFunctionField()
    assert betti(cx, rff).entries == (0, 0)
    f = NumberField(Poly((1, -1, 1)))
    assert betti(cx, f).entries == (1, 1)


def test_mapping_torus_rejects_nonunimodular():
    with pytest.raises(NonUnimodular):
        mapping_torus([[2, 0], [0, 1]])


def test_mapping_torus_rejects_ragged():
    with pytest.raises(SchemaError):
        mapping_torus([[1, 0], [1]])


def test_circle_case():
    cx = mapping_torus([[1]])
    f = NumberField(Poly((-1, 1)))
    assert betti(cx, f).entries == (1, 1)
    assert betti(cx, RationalFunctionField()).entries == (0, 0)


# -- boundary-case specialisations ------------------------------------


def test_specialize_at_class_inverts():
    # d1 = [1 - 2t] drops rank at t = 1/2, which is 1/a for a = 2
    from formzeros.complexes import ChainComplex

    cx = ChainComplex((1, 1), [Matrix(1, 1, [[Poly((1, -2))]])])
    a = AlgebraicNumberSpec.from_rational(2)
    assert specialize_at_class(cx, a, "xi").entries == (1, 1)
    three = AlgebraicNumberSpec.from_rational(3)
    assert specialize_at_class(cx, three, "xi").entries == (0, 0)


def test_specialize_boundary_cases():
    from formzeros.complexes import ChainComplex

    cx = ChainComplex((1, 1), [Matrix(1, 1, [[Poly((0, 1))]])])
    assert betti(cx, Rationals()).entries == (1, 1)
    assert betti(cx, PrimeField(5)).entries == (1, 1)
    # the circle complex 1 - t keeps full rank at t = 0
    circle = mapping_torus([[1]])
    assert betti(circle, Rationals()).entries == (0, 0)


# -- trefoil surgery --------------------------------------------------


def test_trefoil_model_complex_betti():
    cx = trefoil_model_complex(3)
    assert cx.ranks == (1, 7, 0, 0)
    f = NumberField(Poly((-2, 1)))
    assert betti(cx, f).entries == (0, 6, 0, 0)
    at_one = NumberField(Poly((-1, 1)))
    assert betti(cx, at_one).entries == (1, 7, 0, 0)


def test_trefoil_surgery_values():
    for n in (1, 2, 4):
        rep = trefoil_surgery_example(n, AlgebraicNumberSpec.from_rational(2))
        assert rep.h1_X_F == 2 * n
        assert rep.h1_M_generic == 0
        assert rep.h1_M_twisted == 2 * n


def test_trefoil_surgery_at_one_is_untwisted():
    rep = trefoil_surgery_example(2, AlgebraicNumberSpec.from_rational(1))
    assert rep.h1_M_generic == 1
    assert rep.h1_M_twisted == 2 * 2 + 2


# -- component-sum inequality ----------------------------------------


def test_bott_component_validation():
    with pytest.raises(SchemaError):
        BottComponentData(-1, (1,))
    with pytest.raises(SchemaError):
        BottComponentData(0, (1, -2))


def test_bott_check_morse_points():
    comps = [BottComponentData(0, (1,)), BottComponentData(1, (1,)),
             BottComponentData(1, (1,)), BottComponentData(2, (1,))]
    rep = bott_inequality_check(comps, Poly((1, 1)))
    assert rep.lhs == Poly((1, 2, 1))
    assert rep.holds and rep.witness == Poly((0, 1))


def test_bott_check_euler_mismatch_fails():
    # counting vector (1,2) against Betti (1,1): alternating sums differ,
    # so no nonnegative witness can exist
    comps = [BottComponentData(0, (1,)), BottComponentData(1, (1,)),
             BottComponentData(1, (1,))]
    rep = bott_inequality_check(comps, Poly((1, 1)))
    assert not rep.holds and rep.witness is None


def test_bott_check_shifted_dims():
    # one circle-like component of index 2 contributes t^2 + t^3
    comps = [BottComponentData(2, (1, 1))]
    rep = bott_inequality_check(comps, Poly((0, 0, 1, 1)))
    assert rep.lhs == Poly((0, 0, 1, 1))
    assert rep.holds and rep.witness == Poly.zero()
