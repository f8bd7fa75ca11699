"""The regression sweep: green on the shipped data, red on corruption."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import equiko
from equiko import bredon, cli, verify
from equiko.bredon import fuchsian_cocompact_datum
from equiko.fuchsian import Signature


def test_all_checks_pass():
    results = verify.verify_all(2, 100)
    assert len(results) == 13
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.detail  # every check reports what it covered


def test_check_names_are_stable():
    names = [r.name for r in verify.verify_all(2, 30)]
    assert names == [
        "sl3-bredon", "sl3-ko", "gl3-ko", "character-tables",
        "involution-counts", "hecke", "class-counts", "psl2zp",
        "mayer-vietoris", "sl2zp-doubling", "cstar", "snf", "euler",
    ]


def test_corruption_is_trapped_not_raised(monkeypatch):
    # a wrong datum must turn checks red without crashing the sweep
    monkeypatch.setattr(
        bredon, "sl3_datum",
        lambda: fuchsian_cocompact_datum(Signature(0, 0, (2, 3, 7))),
    )
    results = verify.verify_all(2, 30)
    assert len(results) == 13
    failed = {r.name for r in results if not r.passed}
    assert "sl3-bredon" in failed and "sl3-ko" in failed
    assert "hecke" not in failed  # unrelated checks stay green


# -- the forked snf lane -------------------------------------------------------


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_snf_runs_in_a_child_process(monkeypatch):
    monkeypatch.setattr(verify, "check_snf", lambda: f"pid {os.getpid()}")
    results = verify.verify_all(2, 30)
    snf = results[11]
    assert snf.name == "snf" and snf.passed
    assert snf.detail != f"pid {os.getpid()}"
    _assert_no_child_left()


def test_raising_snf_fails_only_snf(capsys, monkeypatch):
    def broken():
        raise AssertionError("transforms are not unimodular")

    monkeypatch.setattr(verify, "check_snf", broken)
    code = cli.main(["verify", "--primes", "2..30"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[11] == "FAIL snf: AssertionError: transforms are not unimodular"
    assert [line for line in lines[:-1] if not line.startswith("PASS")] == [lines[11]]
    assert lines[-1] == "12/13 checks passed"
    _assert_no_child_left()


def _exit_7():
    os._exit(7)


def _interrupt():
    raise KeyboardInterrupt


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("check, how", [
    (_exit_7, "exited with status 7"),
    (_interrupt, "exited with status 1"),
    (_kill, f"killed by signal {signal.SIGKILL.value}"),
], ids=["exit", "interrupt", "kill"])
def test_dying_snf_child_becomes_a_failure(monkeypatch, check, how):
    pid = os.getpid()
    monkeypatch.setattr(verify, "check_snf", check)
    results = verify.verify_all(2, 30)
    assert os.getpid() == pid  # the child never returned into this stack
    assert len(results) == 13
    assert results[11] == verify.CheckResult(
        "snf", False, f"check process {how} without a result")
    assert all(r.passed for r in results if r.name != "snf")
    _assert_no_child_left()


def test_without_fork_snf_runs_inline(monkeypatch):
    forked = verify.verify_all(2, 30)
    monkeypatch.delattr(os, "fork")
    assert verify.verify_all(2, 30) == forked


def test_verify_imports_no_process_machinery():
    # a process pool's imports alone would show in start-up time and peak RSS
    code = (
        "import sys\n"
        "import equiko.cli as cli\n"
        "cli.main(['verify', '--primes', '2..30'])\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'pickle',"
        " 'subprocess') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(equiko.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-2:] == ["13/13 checks passed", "[]"]
