"""Run the usage examples embedded in the library docstrings."""

import doctest

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
