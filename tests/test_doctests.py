"""Run the usage examples embedded in the library docstrings and the README."""

import doctest
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
