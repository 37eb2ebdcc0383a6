"""Exception types shared across the toolkit."""


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


class InsufficientDataError(ValueError):
    """Not enough samples for the operation to be meaningful."""


class DegenerateSpectrumError(ValueError):
    """Input has zero spread, so level segmentation is undefined."""


class UnsupportedMethodError(ValueError):
    """A sensing method is not one of the methods a pipeline stage runs."""


class IqFormatError(ValueError):
    """IQ data file and its sidecar header disagree or are malformed."""
