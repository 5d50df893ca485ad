"""Exception types shared across the package."""

import warnings
from contextlib import contextmanager


class ScrewbenchError(Exception):
    """Base class for all package-specific errors."""


class ScenarioError(ScrewbenchError, ValueError):
    """Scenario file failed to parse or validate. Message names the field."""


class LogFormatError(ScrewbenchError):
    """A CSV log violates the t_s,fz_n,mz_nm schema."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateFitError(ScrewbenchError):
    """Regression input gives no finite fit: the regressor has zero
    variance, or the values overflow or lose rank near the float limit."""


@contextmanager
def degenerate_on_warning(what: str):
    """Turn a numerical warning raised inside the block (a floating-point
    `RuntimeWarning` such as an overflow, or numpy's `RankWarning`, a
    `UserWarning`) into a `DegenerateFitError` naming `what`, before it
    is printed: a least-squares fit on values near the float limit fails
    cleanly."""
    numerical = (RuntimeWarning, UserWarning)
    with warnings.catch_warnings():
        for category in numerical:
            warnings.simplefilter("error", category)
        try:
            yield
        except numerical as exc:
            raise DegenerateFitError(f"{what} is degenerate ({exc})") from None


class UndefinedFrequencyError(ScrewbenchError):
    """Too few peaks to define an oscillation frequency."""
