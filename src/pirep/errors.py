"""Exception types shared across the package."""


class PirepError(Exception):
    """Base class for all package errors."""


class NumericFailure(PirepError):
    """A matrix decomposition failed to converge."""

    def __init__(self, message, shape=None):
        if shape is not None:
            message = f"{message} (matrix shape {shape[0]}x{shape[1]})"
        super().__init__(message)
        self.shape = shape


class DimensionMismatch(PirepError):
    """Operands live on spaces of incompatible dimensions."""


class DomainError(PirepError):
    """Input violates a mathematical precondition (non-PSD, non-nested, ...)."""


class InvalidCorrespondence(PirepError):
    """Structure data does not define a C*-correspondence."""


class InvalidRepresentation(PirepError):
    """The bimodule covariance identity fails beyond tolerance."""


class IntertwinerError(PirepError):
    """An operator fails to intertwine the algebra actions; identity
    amplification would be ill-defined."""


class ResourceLimit(PirepError):
    """A dense array would take more than ``numerics.DENSE_BYTES``; raised
    from its shape, before it is allocated."""


class WindowError(PirepError):
    """The truncation level of a weighted shift does not support the
    requested power; carries the minimal sufficient level."""

    def __init__(self, message, minimal_trunc=None):
        if minimal_trunc is not None:
            message = f"{message} (minimal sufficient truncation: {minimal_trunc})"
        super().__init__(message)
        self.minimal_trunc = minimal_trunc


class NotApplicable(PirepError):
    """A theorem's hypotheses fail for the given input; the conclusion is
    neither asserted nor denied."""

    def __init__(self, reason):
        super().__init__(f"not applicable: {reason}")
        self.reason = reason


class UsageError(PirepError):
    """Unrecognized option or malformed request."""
