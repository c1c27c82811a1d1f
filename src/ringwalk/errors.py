"""Exception types shared across the package.

All input-validation failures derive from ValueError so callers that don't
care about the fine-grained type can catch the usual thing.
"""


class RingwalkError(ValueError):
    """Base class for all validation errors raised by this package."""


class NotPrime(RingwalkError):
    pass


class ElementFieldMismatch(RingwalkError):
    pass


class ZeroElement(RingwalkError):
    pass


class TooLarge(RingwalkError):
    pass


class NotNormalized(RingwalkError):
    pass


class NegativeWeight(RingwalkError):
    pass


class UnknownClass(RingwalkError):
    pass


class AlphaOutOfRange(RingwalkError):
    pass


class ConvergenceFailure(RuntimeError):
    """An eigenvalue solve failed to converge.  Never silently retried."""


class UnsupportedQ(RingwalkError):
    """Closed-form GL2 layer asked for a field size it does not cover."""


class UnknownCase(RingwalkError):
    pass


class SingularSystem(RingwalkError):
    pass


class DenominatorZero(RingwalkError):
    """The stationary recursion hit a vanishing denominator for this Q/alpha."""


class LengthMismatch(RingwalkError):
    pass


class ParamOutOfRange(RingwalkError):
    pass


class RingMismatch(RingwalkError):
    """A distribution built on one ring object was used with another."""


class InvariantViolation(RingwalkError):
    """An identity the theory guarantees (stochastic rows, pi M = pi, a mass
    identity, a class-constant count) failed: the inputs or the ring
    construction are broken.  Raised, not asserted, so it survives -O."""


class ConfigError(RingwalkError):
    """Bad CLI/config input; message carries the offending field."""
