"""The regression sweep: green on the shipped data, red on corruption."""

import os
import subprocess
import sys
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


# -- the snf check ------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("error, line", [
    (MemoryError, "error: out of memory: the result is too large to build"),
    (OverflowError, "error: the result is too large to build: a size exceeds an index"),
], ids=["memory", "overflow"])
def test_a_result_too_large_to_build_is_not_a_failed_check(monkeypatch, capsys, fmt,
                                                            error, line):
    # exit 1 with one error line and empty stdout, not a FAIL line and exit 3,
    # whichever check raises
    def too_large(*args):
        raise error

    for name in ("check_class_counts", "_check_smith_form"):
        with monkeypatch.context() as patch:
            patch.setattr(verify, name, too_large)
            assert cli.main(["verify", "--primes", "2..30", "--format", fmt]) == 1
        assert capsys.readouterr() == ("", line + "\n")


def test_raising_snf_fails_only_snf(monkeypatch, capsys):
    def broken(m):
        raise AssertionError(f"{m.rows}x{m.cols} is not unimodular")

    monkeypatch.setattr(verify, "_check_smith_form", broken)
    code = cli.main(["verify", "--primes", "2..30"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert lines[10] == "FAIL snf: AssertionError: 2x1 is not unimodular"
    assert [line for line in lines[:-1] if not line.startswith("PASS")] == [lines[10]]
    assert lines[-1] == "11/12 checks passed"


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
        verify.check_snf()


def test_snf_battery_is_curated_cases_then_seeded_draws(monkeypatch):
    # the curated matrices lead both the round trips and the oracle matches,
    # and the seeded draws are the same on each run
    round_trips = _count_calls(monkeypatch, exactlinalg, "_smith_normal_form")
    oracle = _count_calls(monkeypatch, verify, "_minor_gcd_factors")
    detail = verify.check_snf()
    assert detail == ("61 round-trips and 131 minor-gcd oracle matches, "
                      "11 of each on curated matrices")
    assert (len(round_trips), len(oracle)) == (61, 131)
    cases = [(m,) for m in verify.SNF_CASES]
    assert round_trips[:11] == cases and oracle[:11] == cases
    assert verify.check_snf() == detail
    assert (round_trips[61:], oracle[131:]) == (round_trips[:61], oracle[:131])


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
