"""Exception hierarchy shared across the package.

Every error derives from one of two bases, and its base alone decides the
CLI exit code: ``UsageError`` (a ``ValueError``) for bad input, exit 2, and
``RuntimeFailure`` (a ``RuntimeError``) for a numerical procedure or a
construction that fails at run time, exit 3.
"""


class UsageError(ValueError):
    """Bad input: the request cannot be answered as asked (CLI exit 2)."""


class RuntimeFailure(RuntimeError):
    """A procedure failed at run time on valid input (CLI exit 3)."""


class StructureError(UsageError):
    """Mismatched shapes: variable counts, point lengths, index ranges."""


class DomainError(UsageError):
    """A parameter is outside the range the operation is defined on."""


class PreconditionError(UsageError):
    """A documented precondition (e.g. homogeneity) does not hold."""


class ConstructionError(RuntimeFailure):
    """An assembled object failed its own defining relations."""


class SamplingError(RuntimeFailure):
    """Level-set sampling did not converge."""


class InstabilityError(RuntimeFailure):
    """Eigenvalue clustering is ambiguous at the requested tolerance."""


class FocalAngleError(RuntimeFailure):
    """A parallel displacement hit a focal angle where the map collapses."""
