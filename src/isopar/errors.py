"""Exception hierarchy shared across the package.

All errors raised on bad input derive from ``ValueError`` so callers can
catch broadly; errors raised when a numerical procedure fails at runtime
derive from ``RuntimeError``.
"""


class StructureError(ValueError):
    """Mismatched shapes: variable counts, point lengths, index ranges."""


class DomainError(ValueError):
    """A parameter is outside the range the operation is defined on."""


class PreconditionError(ValueError):
    """A documented precondition (e.g. homogeneity) does not hold."""


class ConstructionError(RuntimeError):
    """An assembled object failed its own defining relations."""


class SamplingError(RuntimeError):
    """Level-set sampling did not converge."""


class InstabilityError(RuntimeError):
    """Eigenvalue clustering is ambiguous at the requested tolerance."""


class FocalAngleError(RuntimeError):
    """A parallel displacement hit a focal angle where the map collapses."""
