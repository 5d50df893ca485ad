"""Exception types shared across the package; imports nothing."""


class ScrewbenchError(Exception):
    """Base class for all package-specific errors."""


class ScenarioError(ScrewbenchError, ValueError):
    """Scenario file failed to parse or validate. Message names the field."""


class LogFormatError(ScrewbenchError):
    """A CSV log violates the t_s,fz_n,mz_nm schema. `logio` raises it
    citing the log: `<path>:<line>: <what>`, or `<path>: <what>`."""


class DegenerateFitError(ScrewbenchError):
    """Regression input gives no finite fit: the regressor has zero
    variance, or the values overflow or lose rank near the float limit."""


class UndefinedFrequencyError(ScrewbenchError):
    """Too few peaks to define an oscillation frequency."""
