"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, data errors -> 2,
numeric contract violations -> 3.
"""


class CcmError(Exception):
    """Base class for all package errors."""


class UsageError(CcmError):
    """Bad flags, inconsistent configuration, or misuse of an API."""


class DataError(CcmError):
    """Malformed or missing data files / records."""


class DimensionError(CcmError):
    """Tensor shape mismatch."""


class ContractViolation(CcmError):
    """A numeric contract was broken (fully masked row, NaN loss, ...)."""


class CapacityError(UsageError):
    """Input too long for a KV layout's configured capacity: a usage error."""
