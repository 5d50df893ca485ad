"""The top-level package: lazy re-exports and the README's library use."""

import importlib
import re
from pathlib import Path

import pytest

import screwbench

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", screwbench.__all__)
def test_reexport_is_the_submodule_attribute(name):
    """Each public name is re-exported from the one submodule that defines
    it, not from a module that imports it."""
    home = f"screwbench.{screwbench._EXPORTS[name]}"
    obj = getattr(screwbench, name)
    assert obj is getattr(importlib.import_module(home), name)
    assert obj.__module__ == home


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        screwbench.no_such_name
    assert not hasattr(screwbench, "no_such_name")


def test_from_import_of_a_submodule():
    from screwbench import analysis
    assert analysis is importlib.import_module("screwbench.analysis")


def test_readme_library_use_runs_as_written(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(snippet, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("Outcome.")
