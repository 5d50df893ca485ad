"""Exception types shared across the package, and how an error message
shows a refused value; imports nothing at import time."""


class ScrewbenchError(Exception):
    """A bad input file, argument or fit, and the base of `ScenarioError`.
    `logio` raises it citing the file (`<path>:<line>: <what>`, or
    `<path>: <what>`), `analysis` when a regression gives no finite fit,
    and `cli` for a bad argument."""


class ScenarioError(ScrewbenchError, ValueError):
    """Scenario file failed to parse or validate. Message names the field."""


def shown(value) -> str:
    """`value` as an error message shows it: its `repr`, cut short where it
    passes a limit, and each cut marked by `...`. A string, number or other
    single value keeps 1,500 characters of its `repr`; a list, tuple or set
    its first six items, a mapping its first four entries; and containers
    nest three levels deep. A mapping's keys and a set's items are sorted,
    where they compare."""
    import reprlib  # only an error path needs it

    cut = reprlib.Repr()  # limits as attributes: keywords need Python 3.12
    cut.maxstring = cut.maxlong = cut.maxother = 1500
    cut.maxlist = cut.maxtuple = cut.maxset = 6
    cut.maxdict = 4
    cut.maxlevel = 3
    return cut.repr(value)
