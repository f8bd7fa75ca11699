"""Golden CLI output: stdout and exit code of every command, byte for byte.

`tests/golden/cli.json` holds one record per case.  Regenerate it only for an
intended change of output, with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of the JSON file before committing it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from equiko import cli
from equiko.bredon import fuchsian_datum, sl3_datum
from equiko.cwfile import format_cw
from equiko.fuchsian import MODULAR_SIGNATURE

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

#: Input files of the `complex` cases, written under these relative names so
#: that the JSON `inputs.file` field does not depend on the temporary path.
FILES = {
    "modular.cw": lambda: format_cw(fuchsian_datum(MODULAR_SIGNATURE)),
    "sl3.cw": lambda: format_cw(sl3_datum()),
    # int() would read the entry as 10
    "underscore.cw": lambda: "name = x\n[cells.0]\nv = 1\n[cells.1]\ne = 1\n[matrix.1]\n1_0\n",
    # the fundamental polygon of [1,0;2,2]: two-dimensional terms, Z2 cones
    "polygon.cw": lambda: (
        "name = fuchsian[1,0;2,2]\n\n"
        "[cells.0]\nz = 1\nc1 = Z2\nc2 = Z2\n\n"
        "[cells.1]\na1 = 1\na2 = 1\ny1 = 1\ny2 = 1\n\n"
        "[cells.2]\nw = 1\n\n"
        "[boundary.1]\n"
        "a1 = +1 * z : id, -1 * z : id\n"
        "a2 = +1 * z : id, -1 * z : id\n"
        "y1 = +1 * c1 : triv->Z2, -1 * z : id\n"
        "y2 = +1 * c2 : triv->Z2, -1 * z : id\n\n"
        "[boundary.2]\n"
        "w = +1 * a1 : id, -1 * a1 : id, +1 * a2 : id, -1 * a2 : id, "
        "+1 * y1 : id, -1 * y1 : id, +1 * y2 : id, -1 * y2 : id\n"
    ),
    # H = Z, Z, Z/2, 0: K0 is an extension of H2 = Z/2 by H0 = Z
    "moore.cw": lambda: (
        "name = moore\n"
        "[cells.0]\nv = 1\n[cells.1]\ne = 1\n[cells.2]\nf = 1\n[cells.3]\nt = 1\n"
        "[boundary.1]\ne = +1 * v : id, -1 * v : id\n[boundary.2]\nf =\n[matrix.3]\n2\n"
    ),
    # the lens space L(6): H = Z, Z/6, 0, Z, so no collapse to K
    "lens6.cw": lambda: (
        "name = lens6\n"
        "[cells.0]\nv = 1\n[cells.1]\ne = 1\n[cells.2]\nf = 1\n[cells.3]\nt = 1\n"
        "[boundary.1]\ne = +1 * v : id, -1 * v : id\n[matrix.2]\n6\n"
        "[boundary.3]\nt = +1 * f : id, -1 * f : id\n"
    ),
}

_BOTH_FORMATS = [
    ["sl3"],
    ["sl3", "--ko"],
    ["gl3"],
    ["gl3", "--ko"],
    ["fuchsian", "--signature", "[0,0;2,3,7]"],
    ["fuchsian", "--signature", "[0,1;2,3]", "--lift"],
    ["hecke", "-p", "2"],
    ["hecke", "-p", "13"],
    ["hecke", "-p", "23"],
    ["psl2zp", "-p", "17"],
    ["sl2zp", "-p", "13"],
    ["cstar", "-p", "11"],
    ["cstar", "-p", "11", "--ko"],
    ["cstar", "-p", "10007", "--ko"],  # b = 1669: long runs of Z/2 in KO3 and KO4
    ["complex", "--file", "modular.cw"],
    ["complex", "--file", "modular.cw", "--ko"],  # Z3 stabiliser: exit 1
    ["complex", "--file", "modular.cw", "--emit"],
    ["complex", "--file", "sl3.cw", "--ko"],
    ["complex", "--file", "polygon.cw"],
    ["complex", "--file", "polygon.cw", "--ko"],  # H1 = Z^2: exit 1
    ["complex", "--file", "moore.cw"],
    ["complex", "--file", "lens6.cw"],
    ["verify", "--primes", "2..50"],
]

CASES = [argv + ["--format", fmt] for argv in _BOTH_FORMATS for fmt in ("text", "json")]
CASES += [
    ["psl2zp", "-p", "15"],  # composite prime: exit 1
    ["fuchsian", "--signature", "[0,0;2,3"],  # malformed signature: exit 2
    # integers in digits other than ASCII 0-9, or with underscores: exit 2
    ["fuchsian", "--signature", "[0,0;٢,3,7]"],
    ["hecke", "-p", "١٣"],
    ["hecke", "-p", "1_3"],
    ["verify", "--primes", "٢..١٠"],
    ["complex", "--file", "underscore.cw"],
    # --emit writes the file back whatever --format says
    ["complex", "--file", "polygon.cw", "--emit"],
    ["complex", "--file", "sl3.cw", "--emit"],
]


def _case_id(argv) -> str:
    return " ".join(argv)


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refuses an argument by exiting
            code = exc.code
    return {"code": code, "stdout": out.getvalue()}


def _write_files(directory: Path) -> None:
    for name, make in FILES.items():
        (directory / name).write_text(make(), encoding="utf-8")


@pytest.fixture
def in_file_dir(tmp_path, monkeypatch):
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(
        _case_id(argv) for argv in CASES
    )


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_golden_cli(argv, in_file_dir):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[_case_id(argv)]
    assert _run(argv) == expected


#: Cases also run as processes: through `cli.run`, which ends in `os._exit`.
ENTRY_POINT_CASES = [
    ["sl3", "--ko", "--format", "text"],
    ["gl3", "--format", "json"],
    ["cstar", "-p", "10007", "--ko", "--format", "text"],
    ["complex", "--file", "polygon.cw", "--emit"],
    ["verify", "--primes", "2..50", "--format", "json"],
    ["psl2zp", "-p", "15"],
    ["hecke", "-p", "1_3"],
]


@pytest.mark.parametrize("argv", ENTRY_POINT_CASES, ids=_case_id)
def test_golden_cli_through_the_entry_point(argv, tmp_path):
    _write_files(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "equiko.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, encoding="utf-8", timeout=60)
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[_case_id(argv)]
    assert {"code": done.returncode, "stdout": done.stdout} == expected


#: Counts `atexit` callbacks from before `import equiko.cli` to after every
#: case given as JSON in argv[1] has run through `cli.main`.
_COUNT_EXIT_CALLBACKS = """
import atexit
before = atexit._ncallbacks()
import contextlib, io, json, sys
from equiko import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
print(atexit._ncallbacks() - before)
"""


def test_golden_cases_register_no_exit_callbacks(tmp_path):
    # `run` skips the atexit callbacks with the rest of teardown: none may be
    # needed, whether registered by importing a module or by running a case.
    # A fresh interpreter without `site` has not yet imported what equiko uses.
    _write_files(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", _COUNT_EXIT_CALLBACKS, json.dumps(CASES)],
                          cwd=tmp_path, env=env, capture_output=True, encoding="utf-8",
                          timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


def regenerate() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp))
        os.chdir(tmp)
        try:
            records = {_case_id(argv): _run(argv) for argv in CASES}
        finally:
            os.chdir(cwd)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
