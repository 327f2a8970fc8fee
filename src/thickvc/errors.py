"""Exception types shared across the package."""


class ThickVCError(Exception):
    """Base class for all errors raised by this package."""


class EmptyClassError(ThickVCError):
    """A concept class with zero concepts was given where at least one is required."""


class EmptyWitness(ThickVCError):
    """Canonical witness construction produced an empty cluster.

    Raised when the carver map of a claimed strong shattering fails to
    carve out a nonempty intersection pattern for some index.
    """


class NoConsistentHypothesis(ThickVCError):
    """No concept in the class is consistent with the labeled sample."""


class WorkLimitExceeded(ThickVCError):
    """An exact search exceeded its node or candidate budget; the message
    states the budget."""


class FormatError(ThickVCError):
    """A class file, point-set file, or config document is malformed."""


class DomainMismatch(ThickVCError):
    """Two operands live on different domains."""
