"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


class EmptyInputError(ValueError):
    """An operation received zero samples."""


class InsufficientDataError(ValueError):
    """Not enough samples for the operation to be meaningful."""


class DegenerateSpectrumError(ValueError):
    """Input has zero spread, so level segmentation is undefined."""


class UnsupportedMethodError(ValueError):
    """A sensing method is unknown, or registered with no pipeline stage behind it."""


class IqFormatError(ValueError):
    """IQ data file and its sidecar header disagree or are malformed."""
