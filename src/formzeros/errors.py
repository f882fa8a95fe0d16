"""Exception hierarchy shared across the package.

Three coarse categories drive the CLI exit codes: malformed input (2),
a violated structural invariant (1), and a refusal on mathematical
grounds (3).  Everything derives from FormzerosError so callers can
catch the whole family at once.
"""


class FormzerosError(Exception):
    pass


class InputError(FormzerosError):
    """Input could not be parsed or fails schema validation."""


class InvariantViolation(FormzerosError):
    """A structural invariant of the data does not hold."""


class DomainRefusal(FormzerosError):
    """The input is well-formed but outside the method's domain."""


class PolynomialParseError(InputError):
    pass


class SchemaError(InputError):
    pass


class ComplexAxiomViolation(InvariantViolation):
    """Consecutive boundary maps do not compose to zero."""


class PositiveXiWord(InvariantViolation):
    """A group-ring word has positive grading and is not allowed."""


class NonUnimodular(DomainRefusal):
    """An integer matrix that must have determinant +-1 does not."""


class PreconditionViolation(DomainRefusal):
    """A stated precondition of a comparison or theorem-check fails."""


class DirichletUnitRefusal(DomainRefusal):
    """The twisting number is a unit among algebraic integers, where
    the lower-bound machinery is known to break down."""


class IsAlgebraicInteger(DomainRefusal):
    """No admissible prime exists because the number is an algebraic
    integer (its primitive minimal polynomial is monic)."""
