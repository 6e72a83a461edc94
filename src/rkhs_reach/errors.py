"""Exception hierarchy shared across the package, and the CLI's exit codes.

Each package error class carries the exit code and the stderr label
with which the CLI reports it. Every exit code of ``rkhs-reach``:

- 0: success;
- 1: an exception not listed below, which ends in a traceback;
- 2: :class:`InputError` (``error: ...``), and a command line that
  argparse refuses;
- 3: :class:`NumericalError` (``numerical error: ...``), a
  ``MemoryError`` and an array size numpy refuses (``out of memory``);
- 4: :class:`FileFormatError` (``file error: ...``) and an ``OSError``
  (``io error: ...``).
"""


class RKHSReachError(Exception):
    """Base class for all package errors; the package raises only subclasses."""


class InputError(RKHSReachError):
    """Invalid argument, configuration value, or dimension mismatch."""

    exit_code, label = 2, "error"


class NumericalError(RKHSReachError):
    """A numerical operation failed (factorization, non-finite result)."""

    exit_code, label = 3, "numerical error"


class FileFormatError(RKHSReachError):
    """A data file exists but does not parse as the expected format."""

    exit_code, label = 4, "file error"
