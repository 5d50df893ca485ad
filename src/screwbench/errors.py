"""Exception types shared across the package; imports nothing."""


class ScrewbenchError(Exception):
    """A bad input file, argument or fit, and the base of `ScenarioError`.
    `logio` raises it citing the file (`<path>:<line>: <what>`, or
    `<path>: <what>`), `analysis` when a regression gives no finite fit,
    and `cli` for a bad argument."""


class ScenarioError(ScrewbenchError, ValueError):
    """Scenario file failed to parse or validate. Message names the field."""
