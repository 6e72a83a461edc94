"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: input/config problems exit 2,
numerical failures exit 3 (as does a ``MemoryError``), file and IO
problems exit 4.
"""


class RKHSReachError(Exception):
    """Base class for all package errors."""


class InputError(RKHSReachError):
    """Invalid argument, configuration value, or dimension mismatch."""


class NumericalError(RKHSReachError):
    """A numerical operation failed (factorization, non-finite result)."""


class FileFormatError(RKHSReachError):
    """A data file exists but does not parse as the expected format."""
