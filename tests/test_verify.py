"""The regression sweep: green on the shipped data, red on corruption."""

import os
import select
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import equiko
from equiko import bredon, cli, fuchsian, verify
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


# -- the snf parts, shared by a forked child and this process ---------------------


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


LAST = verify._SNF_PARTS - 1


@contextmanager
def _placed_parts(child_runs_all, fault=lambda index, in_child: None):
    """Fix which process runs each snf part, and call `fault(index, in_child)`
    before each part runs; yields the parts this process ran, in order.

    The child claims part 0 while this process's last check waits.  Then
    either the child runs every part (`child_runs_all`), or it waits until
    this process has claimed parts 1 to LAST (a minute at most, so that a
    broken lane fails the test instead of hanging it).
    """
    parent = os.getpid()
    claimed_r, claimed_w = os.pipe()  # child -> parent: the child holds its parts
    go_r, go_w = os.pipe()  # parent -> child: the parent holds the rest
    run_part, euler = verify._run_snf_part, verify.check_euler
    ran = []

    def runner(matrices, index):
        in_child = os.getpid() != parent
        if not in_child:
            ran.append(index)
            if index == LAST:
                os.write(go_w, b".")
        elif index == (LAST if child_runs_all else 0):
            os.write(claimed_w, b".")
            if not child_runs_all:
                select.select([go_r], [], [], 60)
        fault(index, in_child)
        return run_part(matrices, index)

    def waiting_euler():
        os.close(claimed_w)  # a child that dies unannounced reads as end of file
        os.read(claimed_r, 1)
        return euler()

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_run_snf_part", runner)
            patch.setattr(verify, "check_euler", waiting_euler)
            yield ran
    finally:
        for fd in (claimed_r, go_r, go_w):
            os.close(fd)


def test_snf_runs_in_a_child_process():
    for child_runs_all, parent_ran in [(False, list(range(1, LAST + 1))), (True, [])]:
        with _placed_parts(child_runs_all) as ran:
            results = verify.verify_all(2, 30)
        assert ran == parent_ran
        assert results[11] == verify.CheckResult(
            "snf", True, "1000 random round-trips, 120 minor-gcd oracle matches")
        _assert_no_child_left()


def test_raising_snf_fails_only_snf(capsys):
    # the failing part of lowest index is reported, whichever process ran it
    for child_runs_all, failing, reported in [
        (False, {0, 5}, 0),  # part 0 in the child, part 5 in this process
        (False, {3, 7}, 3),  # both in this process
        (True, {3, 7}, 3),  # both in the child
    ]:
        def broken(index, in_child):
            if index in failing:
                raise AssertionError(f"part {index} is not unimodular")

        with _placed_parts(child_runs_all, broken):
            code = cli.main(["verify", "--primes", "2..30"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 3
        assert lines[11] == f"FAIL snf: AssertionError: part {reported} is not unimodular"
        assert [line for line in lines[:-1] if not line.startswith("PASS")] == [lines[11]]
        assert lines[-1] == "12/13 checks passed"
        _assert_no_child_left()


def _exit_7():
    os._exit(7)


def _interrupt():
    raise KeyboardInterrupt


def _kill():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("die, how", [
    (_exit_7, "exited with status 7"),
    (_interrupt, "exited with status 1"),
    (_kill, f"killed by signal {signal.SIGKILL.value}"),
], ids=["exit", "interrupt", "kill"])
def test_dying_snf_child_becomes_a_failure(die, how):
    # the child dies in its first part, after which this process runs all
    # the others, or in its last part, having run all the others itself
    pid = os.getpid()
    for child_runs_all, dies_in in [(False, 0), (True, LAST)]:
        def fault(index, in_child):
            if in_child and index == dies_in:
                die()

        with _placed_parts(child_runs_all, fault) as ran:
            results = verify.verify_all(2, 30)
        assert os.getpid() == pid  # the child never returned into this stack
        assert ran == ([] if child_runs_all else list(range(1, LAST + 1)))
        assert len(results) == 13
        assert results[11] == verify.CheckResult(
            "snf", False, f"check process {how} without a result")
        assert all(r.passed for r in results if r.name != "snf")
        _assert_no_child_left()


def test_without_fork_snf_runs_inline(monkeypatch):
    forked = verify.verify_all(2, 30)
    _assert_no_child_left()
    run_part = verify._run_snf_part
    ran = []

    def runner(matrices, index):
        ran.append(index)
        return run_part(matrices, index)

    monkeypatch.setattr(verify, "_run_snf_part", runner)
    monkeypatch.delattr(os, "fork")
    assert verify.verify_all(2, 30) == forked
    assert ran == list(range(LAST + 1))


def test_verify_sweeps_one_prime_list_with_one_signature_per_prime(monkeypatch):
    listed = _count_calls(monkeypatch, verify, "_primes_in")
    verify.verify_all(2, 30)
    assert listed == [(2, 30)]
    tested = _count_calls(monkeypatch, fuchsian, "is_prime")
    assert verify.check_mv_rank_sum([13, 17, 19]) == "four-term exactness holds for 3 primes"
    assert tested == [(13,), (17,), (19,)]


def _count_calls(monkeypatch, module, name):
    """Replace `module.name` by a wrapper that records each call's arguments."""
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_verify_imports_no_process_machinery(tmp_path):
    # a process pool's imports alone would show in start-up time and peak RSS;
    # `dataclasses` and the `inspect` it imports cost some 30 ms of every start
    circle = tmp_path / "circle.cw"
    circle.write_text("name = circle\n[cells.0]\nv = 1\n[cells.1]\ne = 1\n"
                      "[boundary.1]\ne = +1 * v : id, -1 * v : id\n")
    code = (
        "import sys\n"
        "def loaded():\n"
        "    print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'pickle',"
        " 'subprocess', 'dataclasses', 'inspect') if m in sys.modules))\n"
        "import equiko.cli as cli\n"
        "loaded()\n"
        f"for argv in (['sl3'], ['complex', '--file', {str(circle)!r}],"
        " ['verify', '--primes', '2..30']):\n"
        "    cli.main(argv)\n"
        "    loaded()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(equiko.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("[")] == ["[]"] * 4
    assert "name = circle" in lines
    assert lines[-2:] == ["13/13 checks passed", "[]"]
