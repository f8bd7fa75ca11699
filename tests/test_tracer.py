"""`bench/tracer.py` still traces the CLI: same stdout, the datum checks timed.

The tracer replaces `__post_init__` on the two datum classes and the
`verify.CheckResult` name, so it depends on both staying where it finds them.
The package loads its submodules lazily; the tracer's `vars(module)` executes
each one before wrapping it, so a `cwfile` span and `verify`'s checks show.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from equiko.bredon import fuchsian_datum
from equiko.cwfile import format_cw
from equiko.fuchsian import MODULAR_SIGNATURE

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def _stdout(argv) -> str:
    return subprocess.run([sys.executable, *argv], env=ENV, capture_output=True, text=True,
                          check=True, cwd=ROOT).stdout


@pytest.mark.parametrize("argv", [["sl3"], ["complex", "--file", "modular.cw"],
                                  ["verify", "--primes", "2..30"]],
                         ids=["sl3", "complex", "verify"])
def test_traced_run_matches_the_plain_cli(argv, tmp_path):
    modular = tmp_path / "modular.cw"
    modular.write_text(format_cw(fuchsian_datum(MODULAR_SIGNATURE)))
    argv = [str(modular) if a == "modular.cw" else a for a in argv]
    trace = json.loads(_stdout([str(ROOT / "bench" / "tracer.py"), *argv]))
    assert trace["code"] == 0
    assert trace["stdout"] == _stdout(["-m", "equiko.cli", *argv])
    assert trace["spans"]["bredon.GammaCWDatum.validate"][0] >= 1
    if argv[0] == "complex":
        assert trace["spans"]["cwfile.parse_cw"][0] == 1
    if argv[0] == "verify":
        assert trace["checks"]
