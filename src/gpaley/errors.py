"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class;
anything else is a plain bug and surfaces as a standard Python exception.
"""


class GPaleyError(Exception):
    """Base class for all package-specific errors."""


class CompositeP(GPaleyError):
    """The requested field characteristic is not prime."""


class SizeLimit(GPaleyError):
    """A computation exceeds its configured size cap."""


class InvalidCongruence(GPaleyError):
    """q fails the congruence required for G_k(q) to be well defined."""


class ZeroInput(GPaleyError):
    """Zero passed where a nonzero field element is required."""


class ConductorMismatch(GPaleyError):
    """Cyclotomic operands live in different rings Z[zeta_k]."""


class NotRational(GPaleyError):
    """A cyclotomic value expected to be a rational integer is not."""


class OrderNotDividing(GPaleyError):
    """Requested character order does not divide q - 1."""


class NoRepresentation(GPaleyError):
    """q admits no normalized representation by the requested quadratic form."""


class NonIntegerResult(GPaleyError):
    """An exact division required by a closed formula left a remainder."""


class ShapeMismatch(GPaleyError):
    """Hypergeometric parameters do not match the requested identity's shape."""


class MismatchAgainstPaper(GPaleyError):
    """A reproduced search disagrees with the published bound or witness."""


class InexactTransform(GPaleyError):
    """A floating-point correlation failed a rounding, mass or symmetry guard."""


class CrossCheckMismatch(GPaleyError):
    """An independent route or the naive oracle disagrees with a search count."""
