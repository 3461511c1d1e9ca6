"""Exception hierarchy mapped onto stable CLI exit codes.

Exit statuses: 0 success, 1 property failure, 2 input/schema error,
3 numerical-conditioning error.
"""

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_CONDITIONING_ERROR = 3


class GoldmanError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_CONDITIONING_ERROR


class InputError(GoldmanError):
    """Invalid argument, malformed file, or schema/base mismatch."""

    exit_code = EXIT_INPUT_ERROR


class ConditioningError(GoldmanError):
    """A rank or stability decision could not be made reliably."""

    exit_code = EXIT_CONDITIONING_ERROR


class ConvergenceError(ConditioningError):
    """An iterative solve did not reach its target tolerance."""

    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class DegenerateFormError(ConditioningError):
    """A skew form required to be nondegenerate has a null vector."""

    def __init__(self, message, null_vector=None):
        super().__init__(message)
        self.null_vector = null_vector


def require_type(value, kinds, name: str):
    """value, when it is an instance of kinds (a type or a tuple of
    types); otherwise InputError (exit 2) naming name and the type given.
    The one type rule of the exported calls, so a wrong argument type ends
    here and not in an AttributeError further in."""
    if not isinstance(value, kinds):
        wanted = " or ".join(kind.__name__ for kind in
                             (kinds if isinstance(kinds, tuple) else (kinds,)))
        article = "an" if wanted[0].lower() in "aeiou" else "a"
        raise InputError(f"{name} must be {article} {wanted}, got {type(value).__name__}")
    return value
