"""Shared exception types."""


class AttnGuideError(Exception):
    """Base class for all package errors."""


class DimensionError(AttnGuideError):
    """Tensor shapes are incompatible for the requested operation."""


class ContractError(AttnGuideError):
    """A caller violated an operation precondition."""


class InputError(AttnGuideError):
    """Malformed user-supplied input (prompt, config, file)."""


class BoxParseError(InputError):
    """Box prior text could not be parsed; carries a 1-based line number."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ExtractionError(InputError):
    """No noun/verb pair could be resolved for a clause."""


class DegenerateAttentionError(AttnGuideError):
    """An attention map carries no usable mass for a token/frame."""


class NumericError(AttnGuideError):
    """A non-finite value appeared where finiteness is guaranteed."""
