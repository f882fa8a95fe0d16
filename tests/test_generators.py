"""Seeded randomised properties over generated complexes and
presentations.  Each test owns its seed so failures replay exactly."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from formzeros.complexes import betti, euler_characteristic
from formzeros.deformation import build_deformation
from formzeros.fields import (
    NumberField,
    PrimeField,
    Rationals,
    RationalFunctionField,
)
from formzeros.generators import (
    MAX_ENTRY_COEFF,
    MAX_ENTRY_DEGREE,
    kernel_basis,
    random_algebraic_spec,
    random_complex,
    random_presentation,
    random_unimodular,
)
from formzeros.matrix import Matrix, int_det, rank
from formzeros.poly import Poly


def test_kernel_basis_annihilates():
    rng = random.Random(2201)
    for _ in range(30):
        nr, nc = rng.randint(0, 4), rng.randint(0, 4)
        rows = [[Poly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
                 for _ in range(nc)] for _ in range(nr)]
        m = Matrix(nr, nc, rows)
        basis = kernel_basis(m)
        for v in basis:
            col = Matrix(nc, 1, [[p] for p in v])
            assert m.mul(col).is_zero()
        # rank-nullity over the function field
        assert len(basis) == nc - rank(m, RationalFunctionField())


def test_random_complexes_are_valid_and_within_budget():
    rng = random.Random(7311)
    for _ in range(40):
        cx = random_complex(rng)
        cx.validate()
        assert len(cx.ranks) <= 5
        assert all(r <= 6 for r in cx.ranks)
        for i in range(1, cx.top_degree + 1):
            b = cx.boundary(i)
            for row in b.rows:
                for p in row:
                    assert p.degree <= MAX_ENTRY_DEGREE
                    assert all(abs(c) <= MAX_ENTRY_COEFF for c in p.coeffs)


def test_random_complex_euler_invariance_all_targets():
    rng = random.Random(90210)
    targets = [RationalFunctionField(), Rationals(), PrimeField(3),
               NumberField(Poly((1, -1, 1)))]
    for _ in range(15):
        cx = random_complex(rng)
        ranks_alt = sum((-1) ** i * r for i, r in enumerate(cx.ranks))
        for tgt in targets:
            assert euler_characteristic(cx, tgt) == ranks_alt


def test_random_unimodular_determinants():
    rng = random.Random(13)
    for _ in range(50):
        u = random_unimodular(rng, rng.randint(1, 4))
        assert int_det(u) in (1, -1)


def test_random_algebraic_spec_contracts():
    rng = random.Random(5150)
    for _ in range(15):
        spec = random_algebraic_spec(rng, algebraic_integer=True)
        assert spec.primitive_minpoly().coeffs[-1] == 1
    for _ in range(15):
        spec = random_algebraic_spec(rng, algebraic_integer=False)
        assert abs(spec.primitive_minpoly().coeffs[-1]) != 1


def test_random_presentations_build_valid_complexes():
    rng = random.Random(808)
    for _ in range(20):
        pres = random_presentation(rng)
        cx = build_deformation(pres)
        cx.validate()
        assert cx.ranks == tuple(r * pres.m for r in pres.ranks)


def test_specialisation_commutes_with_evaluation():
    """Betti numbers at a degree-one field equal Betti numbers of the
    numerically evaluated complex: specialising first changes nothing."""
    rng = random.Random(41)
    for _ in range(10):
        cx = random_complex(rng)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        tgt = NumberField(Poly((-c, 1)))
        direct = betti(cx, tgt).entries
        # rebuild the complex with constant entries, each row cleared of
        # its denominators (a nonzero scaling keeps every rank), then
        # take generic betti
        consts = []
        for i in range(1, cx.top_degree + 1):
            b = cx.boundary(i)
            rows = []
            for row in b.rows:
                values = [Fraction(p.evaluate(c)) for p in row]
                mult = math.lcm(*(v.denominator for v in values))
                rows.append([Poly((v * mult,)) for v in values])
            consts.append(Matrix(b.nrows, b.ncols, rows))
        from formzeros.complexes import ChainComplex

        cx2 = ChainComplex(cx.ranks, consts)
        assert betti(cx2, RationalFunctionField()).entries == direct
