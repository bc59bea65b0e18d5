"""Exception types raised by twochar.

Every failure that reports structured evidence carries it in ``witness``
(a tuple of element indices, a generator row, or similar), so callers and
tests can assert on the exact violation found.
"""

from __future__ import annotations


class TwoCharError(Exception):
    """Base class; ``witness`` holds structured evidence when available."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAGroup(TwoCharError):
    """Cayley-table validation failed (shape, identity, inverses, or a
    violated associativity triple reported in ``witness``)."""


class NotAPermutation(TwoCharError):
    """A generator row is not a bijection on ``range(degree)``."""


class ClosureTooLarge(TwoCharError):
    """Generated permutation group exceeded the element bound."""


class NotAMultiple(TwoCharError):
    """Target level is not a multiple of the source level."""


class NotACocycle(TwoCharError):
    """Operation requires a cocycle; the differential was nonzero."""


class TooLarge(TwoCharError):
    """Cohomology computation exceeded its size bound."""


class InternalFault(TwoCharError):
    """A result failed the check that guards it: a fault in the library, not
    in its input.  The command line exits with code 4 on these."""


class WrongWitness(InternalFault):
    """A computed witness fails the check it was computed to pass (an
    internal fault); ``witness`` is where it fails, e.g. (g, h, x)."""


class NotContained(TwoCharError):
    """A conjugated subgroup or an image is not inside the group it must lie
    in; ``witness`` is an element that falls outside."""


class NotNormal(TwoCharError):
    """A subgroup that must be normal is not; ``witness`` is (g, x) with
    g·x·g⁻¹ outside it."""


class NotCentral(TwoCharError):
    """A subgroup that must be central is not; ``witness`` is (h, x) with
    h·x ≠ x·h."""


class DegreeZero(TwoCharError):
    """The homotopy operator is undefined in degree zero."""


class NotAHomomorphism(TwoCharError):
    """Boundary map fails multiplicativity; ``witness`` is the pair."""


class NotAnAction(TwoCharError):
    """Action table fails the left-action or automorphism laws; ``witness``
    is (0,) for the identity row, (g,) for a row that is not a permutation,
    or the triple where a law fails."""


class EquivarianceFailure(TwoCharError):
    """Boundary is not equivariant; ``witness`` is the failing (g, h)."""


class PeifferFailure(TwoCharError):
    """Peiffer identity fails; ``witness`` is the failing (h, h')."""


class NotComposable(TwoCharError):
    """2-morphisms are not adjacent for the requested composition."""


class AmbientMismatch(TwoCharError):
    """Operands live over different ambient groups."""


class GroupMismatch(TwoCharError):
    """Ring elements belong to rings over different groups."""


class AlphaNotHomomorphism(TwoCharError):
    """Mark weight is not multiplicative on cohomology classes."""


class NotCommuting(TwoCharError):
    """2-character arguments must commute (up to the boundary twist)."""


class NotNormalized(TwoCharError):
    """Cocycle must vanish on identity arguments."""


class FormulasDisagree(TwoCharError):
    """The three 2-character formulas gave different values; ``witness`` is
    (a, b, column, mark value, transversal value, fixed-point value)."""


class TwistMismatch(InternalFault):
    """The measured projective factor ν of a twisted representation differs
    from the twist μ; ``witness`` is the first (g, h) with ν(g, h) ≠ μ(g, h)."""


class NotMonic(InternalFault):
    """Polynomial division by a divisor whose leading coefficient is not 1;
    ``witness`` is the divisor."""


class InexactDivision(InternalFault):
    """A polynomial division that must be exact left a remainder; ``witness``
    is (level, remainder)."""


class NotScalarMultiple(TwoCharError):
    """Measured matrix is not a scalar multiple of the reference."""
