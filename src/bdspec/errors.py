"""Exception types shared across the package."""


class BdspecError(Exception):
    """Base class for all library errors."""


class NonPositiveRate(BdspecError):
    """A birth or death rate required to be positive is <= 0."""


class Overflow(BdspecError):
    """A rate is not finite (NaN or infinite) where ``ChainModel.rates`` reads it."""


class UnknownModel(BdspecError):
    """Catalog name is not registered."""


class BadParameter(BdspecError):
    """Catalog parameter outside its documented range."""


class WrongBoundary(BdspecError):
    """Operation applied to a model with an incompatible boundary code."""


class NotErgodic(BdspecError):
    """Operation requires a finite total weight (sum of mu) but it diverges."""


class WrongShape(BdspecError):
    """Dual transform applied to a model of the wrong shape."""


class WrongVariant(BdspecError):
    """Sobolev variant incompatible with the model's boundary."""


class DomainViolation(BdspecError):
    """Test-sequence transform applied outside its domain."""


class TruncationTooSmall(BdspecError):
    """Eigensolver truncation level below the minimum (2 states)."""


class NoConvergence(BdspecError):
    """The shooting recursion found no admissible shift (raised by
    ``oracle.shooting_rate`` only)."""


class SingularM(BdspecError):
    """Similarity transform matrix singular (defensive; positive weights prevent it)."""


class Condition72Fails(BdspecError):
    """The sum of 1/(mu_i a_i) diverges, so the first-step formulas do not apply."""


class NotInF(BdspecError):
    """Test function violates the admissibility inequalities on the scanned range."""


class EtaOutOfRange(BdspecError):
    """Interpolation parameter eta outside [0, xi_f]."""


class ShapeViolation(BdspecError):
    """Killing-reduction applied to a model outside the required shape."""


class KilledChain(BdspecError):
    """Operation covers killing-free chains only; killed ones have their own bounds."""


class HypothesisUnverified(UserWarning):
    """Result returned although a hypothesis could not be verified numerically."""
