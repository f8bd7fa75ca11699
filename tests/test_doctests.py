"""Run the usage examples embedded in the library docstrings and the README,
and check the package's public names, which the README tour imports."""

import doctest
import inspect
from pathlib import Path

import equiko
from equiko import (
    arithmetic_k,
    bredon,
    cli,
    cwfile,
    exactlinalg,
    fuchsian,
    groups,
    ko_assembly,
    verify,
)

MODULES = [
    equiko, exactlinalg, groups, fuchsian, bredon, cwfile,
    ko_assembly, arithmetic_k, verify, cli,
]


def test_doctests():
    attempted = 0
    for mod in MODULES:
        result = doctest.testmod(mod, verbose=False)
        assert result.failed == 0, f"doctest failure in {mod.__name__}"
        attempted += result.attempted
    assert attempted >= 15  # the examples exist and actually ran


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.failed == 0
    assert result.attempted >= 8  # the library tour ran


def test_public_names_are_exported():
    # a stale re-export fails to resolve; an unlisted one escapes `import *`
    for name in equiko.__all__:
        assert hasattr(equiko, name), name
    public = {
        name for name, value in vars(equiko).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(equiko.__all__)
