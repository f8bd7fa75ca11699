"""Each command executes only the modules it runs.

The package registers its submodules lazily (see `equiko/__init__.py`), so
a module's source is compiled only when a command first reads from it.
Each case runs in a fresh interpreter that writes no bytecode, as on the
benchmark machine, where every executed module is also compiled.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equiko

#: The child reports the executed equiko modules after `import equiko.cli`
#: and after `cli.main(argv)`.  A lazy module that has not executed is an
#: `importlib.util._LazyModule`; reading its `__class__` would execute it.
CHILD = """
import contextlib, io, json, sys, types
def executed():
    return sorted(name.removeprefix("equiko.") for name, module in sys.modules.items()
                  if name.startswith("equiko.") and type(module) is types.ModuleType)
import equiko.cli as cli
after_import = executed()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
registered = sorted(name.removeprefix("equiko.") for name in sys.modules
                    if name.startswith("equiko."))
print(json.dumps([after_import, code, executed(), registered]))
"""

IMPORT = ["_value", "cli", "exactlinalg"]
ALL = sorted(IMPORT + ["arithmetic_k", "bredon", "cwfile", "fuchsian", "groups",
                       "ko_assembly", "verify"])
DATUM = ["bredon", "groups", "ko_assembly"]

CASES = {
    "sl3": (["sl3"], DATUM),
    "gl3-ko": (["gl3", "--ko"], DATUM),
    "hecke": (["hecke", "-p", "23"], ["fuchsian"]),
    "fuchsian": (["fuchsian", "--signature", "[0,0;2,3,7]"],
                 ["fuchsian", "groups", "ko_assembly"]),
    "cstar-ko": (["cstar", "-p", "23", "--ko"],
                 ["arithmetic_k", "fuchsian", "groups", "ko_assembly"]),
    "complex": (["complex", "--file", "circle.cw"], DATUM + ["cwfile"]),
    # `verify` reads no Gamma-CW file
    "verify": (["verify", "--primes", "2..30"], [m for m in ALL if m not in IMPORT + ["cwfile"]]),
}


@pytest.mark.parametrize("argv, runs", CASES.values(), ids=CASES.keys())
def test_a_command_executes_only_what_it_runs(argv, runs, tmp_path):
    (tmp_path / "circle.cw").write_text("name = circle\n[cells.0]\nv = 1\n[cells.1]\ne = 1\n"
                                        "[boundary.1]\ne = +1 * v : id, -1 * v : id\n")
    env = {**os.environ, "PYTHONPATH": str(Path(equiko.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, capture_output=True,
                         text=True, check=True, cwd=tmp_path).stdout
    after_import, code, executed, registered = json.loads(out)
    assert after_import == IMPORT
    assert code == 0
    assert executed == sorted(IMPORT + runs)
    # every module stays findable in `sys.modules`, executed or not
    assert registered == ALL


def test_executing_the_submodules_adds_no_package_name():
    # a name bound while something iterates the package namespace, as
    # `doctest.testmod(equiko)` and `bench/tracer.py` do, raises RuntimeError
    code = (
        "import equiko, doctest\n"
        "before = set(vars(equiko))\n"
        "assert doctest.testmod(equiko).failed == 0\n"
        "equiko.verify.verify_all, equiko.cwfile.parse_cw\n"
        "print(sorted(set(vars(equiko)) ^ before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(equiko.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
