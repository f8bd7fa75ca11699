"""The regression sweep: green on the shipped data, red on corruption."""

import errno
import os
import select
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import equiko
from equiko import bredon, cli, exactlinalg, fuchsian, verify
from equiko.bredon import fuchsian_datum
from equiko.exactlinalg import IntMatrix
from equiko.fuchsian import Signature


def test_all_checks_pass():
    results = verify.verify_all(2, 100)
    assert len(results) == 12
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.detail  # every check reports what it covered


def test_check_names_are_stable():
    names = [r.name for r in verify.verify_all(2, 30)]
    assert names == [
        "sl3-bredon", "sl3-ko", "gl3-ko", "character-tables",
        "involution-counts", "hecke", "class-counts", "psl2zp",
        "sl2zp-doubling", "cstar", "snf", "gauss-bonnet",
    ]


def test_corruption_is_trapped_not_raised(monkeypatch):
    # a wrong datum must turn checks red without crashing the sweep
    monkeypatch.setattr(
        bredon, "sl3_datum",
        lambda: fuchsian_datum(Signature(0, 0, (2, 3, 7))),
    )
    results = verify.verify_all(2, 30)
    assert len(results) == 12
    failed = {r.name for r in results if not r.passed}
    assert "sl3-bredon" in failed and "sl3-ko" in failed
    assert "hecke" not in failed  # unrelated checks stay green


# -- the snf parts, shared by a forked child and this process ---------------------


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("error, line", [
    (MemoryError, "error: out of memory: the result is too large to build"),
    (OverflowError, "error: the result is too large to build: a size exceeds an index"),
], ids=["memory", "overflow"])
def test_a_result_too_large_to_build_is_not_a_failed_check(monkeypatch, capsys, fmt,
                                                            error, line):
    # exit 1 with one error line and empty stdout, not a FAIL line and exit 3
    def too_large():
        raise error

    monkeypatch.setattr(verify, "check_class_counts", too_large)
    assert cli.main(["verify", "--primes", "2..30", "--format", fmt]) == 1
    assert capsys.readouterr() == ("", line + "\n")
    _assert_no_child_left()


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
    run_part, gauss_bonnet = verify._run_snf_part, verify.check_gauss_bonnet
    ran = []

    def runner(index):
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
        return run_part(index)

    def waiting_gauss_bonnet(primes):
        os.close(claimed_w)  # a child that dies unannounced reads as end of file
        os.read(claimed_r, 1)
        return gauss_bonnet(primes)

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_run_snf_part", runner)
            patch.setattr(verify, "check_gauss_bonnet", waiting_gauss_bonnet)
            yield ran
    finally:
        for fd in (claimed_r, go_r, go_w):
            os.close(fd)


def test_snf_runs_in_a_child_process():
    for child_runs_all, parent_ran in [(False, list(range(1, LAST + 1))), (True, [])]:
        with _placed_parts(child_runs_all) as ran:
            results = verify.verify_all(2, 30)
        assert ran == parent_ran
        assert results[10] == verify.CheckResult(
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
        assert lines[10] == f"FAIL snf: AssertionError: part {reported} is not unimodular"
        assert [line for line in lines[:-1] if not line.startswith("PASS")] == [lines[10]]
        assert lines[-1] == "11/12 checks passed"
        _assert_no_child_left()


_smith_normal_form = exactlinalg._smith_normal_form


def _factors_negated(m):
    d, left, right = _smith_normal_form(m)
    return tuple(-x for x in d), left, right


def _factors_reversed(m):
    d, left, right = _smith_normal_form(m)
    return d[::-1], left, right


def _right_column_negated(m):
    d, left, right = _smith_normal_form(m)
    n = right.cols
    return d, left, IntMatrix(n, n, tuple(-x if k % n == 0 else x
                                          for k, x in enumerate(right.entries)))


def _left_doubled(m):
    # 2 left @ m @ right is the diagonal of 2 d, a chain, but det(2 left) != +-1
    d, left, right = _smith_normal_form(m)
    return tuple(2 * x for x in d), IntMatrix(left.rows, left.cols,
                                              tuple(2 * x for x in left.entries)), right


#: a kernel wrong in one property, and the message of the check that sees it
_BAD_SNF = [
    (_factors_negated, "are not a positive divisibility chain"),
    (_factors_reversed, "are not a positive divisibility chain"),
    (_right_column_negated, "SNF round-trip failed for"),
    (_left_doubled, "SNF transforms are not unimodular"),
]


@pytest.mark.parametrize("kernel, message", _BAD_SNF,
                         ids=[kernel.__name__.lstrip("_") for kernel, _ in _BAD_SNF])
def test_snf_check_states_each_property(monkeypatch, kernel, message):
    monkeypatch.setattr(exactlinalg, "_smith_normal_form", kernel)
    with pytest.raises(AssertionError, match=message):
        verify._run_snf_part(0)


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
        assert len(results) == 12
        assert results[10] == verify.CheckResult(
            "snf", False, f"check process {how} without a result")
        assert all(r.passed for r in results if r.name != "snf")
        _assert_no_child_left()


def test_without_fork_snf_runs_inline(monkeypatch):
    forked = verify.verify_all(2, 30)
    _assert_no_child_left()
    run_part = verify._run_snf_part
    ran = []

    def runner(index):
        ran.append(index)
        return run_part(index)

    monkeypatch.setattr(verify, "_run_snf_part", runner)
    monkeypatch.delattr(os, "fork")
    assert verify.verify_all(2, 30) == forked
    assert ran == list(range(LAST + 1))


def test_a_failed_fork_runs_snf_inline_and_closes_its_pipe(monkeypatch):
    forked = verify.verify_all(2, 30)
    _assert_no_child_left()

    def refuse():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    before = sorted(os.listdir("/proc/self/fd"))
    assert verify.verify_all(2, 30) == forked
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_snf_parts_draw_their_own_matrices_and_total_the_check(monkeypatch):
    # every part is one unit: it draws the same matrices on each call, and
    # the parts together make the 1000 round trips and 120 oracle matches
    round_trips = _count_calls(monkeypatch, exactlinalg, "_smith_normal_form")
    oracle = _count_calls(monkeypatch, verify, "_minor_gcd_factors")
    for index in range(verify._SNF_PARTS):
        verify._run_snf_part(index)
    assert (len(round_trips), len(oracle)) == (1000, 120)
    part_7 = (round_trips[350:400], oracle[42:48])
    verify._run_snf_part(7)
    assert (round_trips[1000:], oracle[120:]) == part_7


def test_verify_sweeps_one_prime_list_with_one_signature_per_prime(monkeypatch):
    listed = _count_calls(monkeypatch, verify, "_primes_in")
    verify.verify_all(2, 30)
    assert listed == [(2, 30)]
    tested = _count_calls(monkeypatch, fuchsian, "is_prime")
    assert verify.check_gauss_bonnet([13, 17, 19]).startswith("6 chi_orb = -(p+1) for 3 primes;")
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
    # `dataclasses` and the `inspect` it imports cost some 30 ms of every start,
    # `fractions` 3-4 ms (the orbifold Euler characteristic is kept in integers)
    circle = tmp_path / "circle.cw"
    circle.write_text("name = circle\n[cells.0]\nv = 1\n[cells.1]\ne = 1\n"
                      "[boundary.1]\ne = +1 * v : id, -1 * v : id\n")
    code = (
        "import sys\n"
        "def loaded():\n"
        "    print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'pickle',"
        " 'subprocess', 'dataclasses', 'inspect', 'fractions') if m in sys.modules))\n"
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
    assert lines[-2:] == ["12/12 checks passed", "[]"]
