"""Exception hierarchy shared by all polysat modules."""


class PolysatError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(PolysatError):
    """The input relation contains a directed cycle, so it is not an order."""


class IndexOutOfRange(PolysatError):
    """An element index falls outside 0..n-1."""


class EmptyPoset(PolysatError):
    """An operation that requires a nonempty poset received n = 0."""


class SizeLimitExceeded(PolysatError):
    """The instance is larger than the configured exact-search limit."""


class BudgetExceeded(PolysatError):
    """An exhaustive search ran past its time budget."""


class NotRanked(PolysatError):
    """The poset has no consistent rank function."""


class PartitionMismatch(PolysatError):
    """A chain partition does not belong to the given poset."""


class BadK(PolysatError):
    """A k parameter is outside its valid range."""


class BadParameters(PolysatError):
    """Numeric parameters violate a precondition."""


class InvalidDelta(PolysatError, ValueError):
    """A difference sequence is not realizable by a polyunsaturated poset."""


class Infeasible(PolysatError):
    """No polyunsaturated poset exists with the requested parameters."""


class InvalidRealizer(PolysatError):
    """The two permutations are not a 2-realizer of the poset."""
