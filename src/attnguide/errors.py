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
    """Box prior text could not be parsed; the message names the 1-based line if there is one."""

    def __init__(self, message, line_no=None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class ExtractionError(InputError):
    """No noun/verb pair could be resolved for a clause."""


class DegenerateAttentionError(AttnGuideError):
    """An attention map carries no usable mass for a token/frame."""


class NumericError(AttnGuideError):
    """A non-finite value appeared where finiteness is guaranteed."""
