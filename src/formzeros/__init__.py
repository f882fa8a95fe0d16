"""Exact homological lower bounds for zeros of closed one-forms.

Everything is computed over Z[t] (t the deformation variable) with
exact arithmetic end to end: exact elimination for ranks and
determinants (one echelon form over Z[t], also run mod p for Z/p at
t = 0; Gaussian elimination over number fields only), certified
factorisation for jump loci, and divisibility witnesses for every
counting inequality.
"""

from __future__ import annotations

from .bounds import (
    BoundsReport,
    JumpFactor,
    JumpReport,
    PrimeSelection,
    UnitClassification,
    all_jump_points,
    classify,
    jump_points,
    select_prime,
    zero_bounds,
)
from .complexes import (
    BettiVector,
    ChainComplex,
    SpecializationOrderReport,
    betti,
    dominates,
    dominates_alternating,
    euler_characteristic,
    poincare,
    specialization_order_check,
)
from .deformation import (
    BottCheckReport,
    BottComponentData,
    Generator,
    GroupRingPresentation,
    GroupWordSum,
    TrefoilSurgeryReport,
    alexander_block_complex,
    bott_inequality_check,
    build_deformation,
    mapping_torus,
    specialize_at_class,
    trefoil_model_complex,
    trefoil_surgery_example,
)
from .errors import (
    ComplexAxiomViolation,
    DirichletUnitRefusal,
    DomainRefusal,
    FormzerosError,
    InputError,
    InvariantViolation,
    IsAlgebraicInteger,
    NonUnimodular,
    PolynomialParseError,
    PositiveXiWord,
    PreconditionViolation,
    SchemaError,
)
from .factor import is_irreducible, split_squarefree
from .fields import (
    AlgebraicNumberSpec,
    FieldTarget,
    NumberField,
    PrimeField,
    Rationals,
    RationalFunctionField,
)
from .matrix import Matrix, det, minor_gcd, rank
from .poly import Poly, gcd_primitive, radical

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumberSpec",
    "BettiVector",
    "BottCheckReport",
    "BottComponentData",
    "BoundsReport",
    "ChainComplex",
    "ComplexAxiomViolation",
    "DirichletUnitRefusal",
    "DomainRefusal",
    "FieldTarget",
    "FormzerosError",
    "Generator",
    "GroupRingPresentation",
    "GroupWordSum",
    "InputError",
    "InvariantViolation",
    "IsAlgebraicInteger",
    "JumpFactor",
    "JumpReport",
    "Matrix",
    "NonUnimodular",
    "NumberField",
    "Poly",
    "PolynomialParseError",
    "PositiveXiWord",
    "PreconditionViolation",
    "PrimeField",
    "PrimeSelection",
    "Rationals",
    "RationalFunctionField",
    "SchemaError",
    "SpecializationOrderReport",
    "TrefoilSurgeryReport",
    "UnitClassification",
    "alexander_block_complex",
    "all_jump_points",
    "betti",
    "bott_inequality_check",
    "build_deformation",
    "classify",
    "det",
    "dominates",
    "dominates_alternating",
    "euler_characteristic",
    "gcd_primitive",
    "is_irreducible",
    "jump_points",
    "mapping_torus",
    "minor_gcd",
    "poincare",
    "radical",
    "rank",
    "select_prime",
    "specialization_order_check",
    "specialize_at_class",
    "split_squarefree",
    "trefoil_model_complex",
    "trefoil_surgery_example",
    "zero_bounds",
]
