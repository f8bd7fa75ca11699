"""Command-line interface: output shapes, exit codes, determinism."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from equiko import bredon, cli
from equiko.bredon import fuchsian_datum
from equiko.cwfile import CWFormatError, format_cw, parse_cw
from equiko.exactlinalg import (
    ChainComplexError, FinAbGroup, InputError, IntChainComplex, IntMatrix,
)
from equiko.fuchsian import MODULAR_SIGNATURE, Signature, parse_signature


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse refuses an argument by exiting
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- text output -------------------------------------------------------------------


def test_sl3_text(capsys):
    code, out, _ = run(capsys, "sl3")
    assert code == 0
    assert out == "K0 = Z^8, K1 = 0\nremaining groups by Bott periodicity\n"


def test_sl3_ko_text(capsys):
    code, out, _ = run(capsys, "sl3", "--ko")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "KO0 = Z^8"
    assert lines[1] == "KO1 = " + " + ".join(["Z/2"] * 8)
    assert lines[3] == "KO3 = 0"
    assert lines[4] == "KO4 = Z^8"
    assert lines[-1] == "remaining groups by Bott periodicity"
    assert len(lines) == 9


def test_gl3_ko_text(capsys):
    code, out, _ = run(capsys, "gl3", "--ko")
    assert code == 0
    assert out.splitlines()[0] == "KO0 = Z^16"


def test_fuchsian_text(capsys):
    code, out, _ = run(capsys, "fuchsian", "--signature", "[0,0;2,3,7]")
    assert code == 0
    assert out.splitlines()[0] == "K0 = Z^11, K1 = 0"


def test_fuchsian_lift(capsys):
    code, out, _ = run(capsys, "fuchsian", "--signature", "[0,1;2,3]", "--lift")
    assert code == 0
    assert out.splitlines()[0] == "K0 = Z^8, K1 = 0"


def test_hecke_text(capsys):
    code, out, _ = run(capsys, "hecke", "-p", "23")
    assert code == 0
    assert out == "signature = [2,2;]\nH0 = Z\nH1 = Z^5\n"


def test_psl2zp_text(capsys):
    code, out, _ = run(capsys, "psl2zp", "-p", "17")
    assert code == 0
    assert out.splitlines()[0] == "K0 = Z^9, K1 = Z"


def test_sl2zp_text(capsys):
    code, out, _ = run(capsys, "sl2zp", "-p", "13")
    assert code == 0
    assert out.splitlines()[0] == "K0 = Z^10, K1 = Z^6"


def test_cstar_ko_marks_extension_ambiguity(capsys):
    code, out, _ = run(capsys, "cstar", "-p", "11", "--ko")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].endswith("(up to extension)")
    assert lines[3].endswith("(up to extension)")
    assert lines[4].endswith("(up to extension)")
    assert not lines[0].endswith("(up to extension)")
    assert not lines[2].endswith("(up to extension)")


# -- json output -------------------------------------------------------------------


def test_json_schema(capsys):
    code, out, _ = run(capsys, "psl2zp", "-p", "13", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "psl2zp"
    assert doc["inputs"] == {"p": 13}
    assert doc["groups"] == {"K0": "Z^5", "K1": "Z^3"}
    assert doc["extension_ambiguous"] is False


def test_json_ambiguous_degrees(capsys):
    code, out, _ = run(capsys, "cstar", "-p", "11", "--ko", "--format", "json")
    doc = json.loads(out)
    assert doc["extension_ambiguous"] is True
    assert doc["ambiguous_degrees"] == [1, 3, 4]


def test_json_hecke_signature(capsys):
    code, out, _ = run(capsys, "hecke", "-p", "13", "--format", "json")
    doc = json.loads(out)
    assert doc["signature"] == "[0,2;2,2,3,3]"
    assert doc["groups"] == {"H0": "Z^7", "H1": "Z"}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_each_group_is_rendered_once(capsys, monkeypatch, fmt):
    # a (Z/2)^b string of `cstar --ko` is megabytes long for large p
    calls = []
    render = FinAbGroup.__str__
    monkeypatch.setattr(FinAbGroup, "__str__", lambda g: calls.append(g) or render(g))
    code, _, _ = run(capsys, "cstar", "-p", "23", "--ko", "--format", fmt)
    assert code == 0
    assert len(calls) == 8


def _stream_uses(path: Path) -> list[int]:
    """Lines of `path` that call `print` or name `sys.stdout` or `sys.stderr`."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"
                or isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                and isinstance(node.value, ast.Name) and node.value.id == "sys"
                or isinstance(node, ast.ImportFrom) and node.module == "sys"
                and {a.name for a in node.names} & {"stdout", "stderr"}):
            lines.append(node.lineno)
    return lines


def test_only_the_cli_writes_to_the_standard_streams():
    # every other module returns values or raises; `cli` alone writes them
    assert _stream_uses(Path(cli.__file__))  # the detector sees what cli does
    uses = {p.name: _stream_uses(p) for p in Path(cli.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in uses.items() if lines and name != "cli.py"} == {}


# -- determinism -------------------------------------------------------------------


def test_output_is_deterministic(capsys):
    first = run(capsys, "sl3", "--ko", "--format", "json")
    second = run(capsys, "sl3", "--ko", "--format", "json")
    assert first == second
    third = run(capsys, "verify", "--primes", "2..50")
    fourth = run(capsys, "verify", "--primes", "2..50")
    assert third == fourth


# -- the complex command -----------------------------------------------------------


@pytest.fixture
def modular_file(tmp_path):
    path = tmp_path / "modular.cw"
    path.write_text(format_cw(fuchsian_datum(MODULAR_SIGNATURE)))
    return str(path)


def test_complex_text(capsys, modular_file):
    code, out, _ = run(capsys, "complex", "--file", modular_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name = fuchsian[0,1;2,3]"
    assert "H0 = Z^4" in lines
    assert "K0 = Z^4, K1 = 0" in lines


def test_complex_emit_roundtrip(capsys, modular_file):
    code, out, _ = run(capsys, "complex", "--file", modular_file, "--emit")
    assert code == 0
    assert out == Path(modular_file).read_text()


def test_complex_json(capsys, modular_file):
    code, out, _ = run(capsys, "complex", "--file", modular_file, "--format", "json")
    doc = json.loads(out)
    assert doc["groups"]["H0"] == "Z^4"
    assert doc["groups"]["K0"] == "Z^4"
    assert doc["name"] == "fuchsian[0,1;2,3]"


def test_complex_ko_needs_hypothesis(capsys, modular_file):
    code, _, err = run(capsys, "complex", "--file", modular_file, "--ko")
    assert code == 1
    assert "Z3" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_complex_ko_refuses_a_cell_without_coinciding_tables(capsys, tmp_path, fmt):
    # the whole command is refused: no H or K lines before the error
    path = tmp_path / "z3.cw"
    path.write_text("name = z3\n\n[cells.0]\nv = Z3\n")
    assert run(capsys, "complex", "--file", str(path), "--ko", "--format", fmt) == (
        1, "", "error: stabiliser Z3 does not have coinciding character tables; "
               "the KO page hypothesis fails\n")


def test_complex_ko_help_says_it_refuses(capsys):
    code, out, _ = run(capsys, "complex", "--help")
    assert code == 0
    assert ("also compute KO; exit 1 unless every stabiliser has coinciding character tables"
            in " ".join(out.split()))


# -- exit codes --------------------------------------------------------------------


def test_domain_errors_exit_one(capsys):
    assert run(capsys, "hecke", "-p", "15")[0] == 1
    assert run(capsys, "cstar", "-p", "13")[0] == 1
    assert run(capsys, "fuchsian", "--signature", "[0,0;2,5]", "--lift")[0] == 1


def test_prime_beyond_proven_range_exits_one(capsys):
    # a composite strong pseudoprime to every base of the primality test
    code, out, err = run(capsys, "psl2zp", "-p", "3317044064679887385961981")
    assert (code, out) == (1, "")
    assert "2**64" in err


def test_parse_errors_exit_two(capsys, tmp_path):
    def assert_refused(*argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    assert_refused("fuchsian", "--signature", "nope")
    assert_refused("fuchsian", "--signature", "[0,0;2 3,7]")
    # int() refuses more than 4300 digits with a plain ValueError
    huge = "9" * 5000
    assert_refused("fuchsian", "--signature", f"[0,0;2,{huge}]")
    assert_refused("verify", "--primes", f"2..{huge}")
    assert_refused("complex", "--file", str(tmp_path / "missing.cw"))
    bad = tmp_path / "bad.cw"
    bad.write_text("name = x\n[cells.0]\nv = Q8\n")
    assert_refused("complex", "--file", str(bad))
    bad.write_text("name = x\n[cells.0]\nz = Zm(²)\n")
    assert_refused("complex", "--file", str(bad))
    bad.write_text(f"name = x\n[cells.{huge}]\nv = 1\n")
    assert_refused("complex", "--file", str(bad))
    bad.write_text(f"name = x\n[cells.0]\nz = Zm({huge})\n")
    assert_refused("complex", "--file", str(bad))
    assert_refused("verify", "--primes", "zzz")


def test_input_errors_are_one_type():
    # main codes exit 2 by this type alone; each is still a ValueError
    refusals = [
        (CWFormatError, lambda: parse_cw("name = x\n[cells.0]\nv = Q8\n")),
        (ChainComplexError, lambda: IntChainComplex((1, 1), (IntMatrix.from_rows([[1, 1]]),))),
        (InputError, lambda: parse_signature("nope")),
        (InputError, lambda: parse_signature("[0,0;2,,3]")),
        (InputError, lambda: parse_signature("[0,0;2 3]")),
        (InputError, lambda: parse_signature(f"[0,0;2,{'9' * 5000}]")),
        (CWFormatError, lambda: parse_cw(f"name = x\n[cells.{'9' * 5000}]\nv = 1\n")),
        (InputError, lambda: Signature(-1, 0, ())),
    ]
    for kind, refuse in refusals:
        with pytest.raises(InputError) as err:
            refuse()
        assert type(err.value) is kind
    assert issubclass(InputError, ValueError)


@pytest.mark.parametrize("argv, message", [
    (("hecke", "-p", "١٣"), "invalid ascii_int value: '١٣'"),
    (("hecke", "-p", "1_3"), "invalid ascii_int value: '1_3'"),
    (("verify", "--primes", "٢..١٠"), "--primes expects A..B, got '٢..١٠'"),
    (("hecke", "-p", "13\n"), "invalid ascii_int value: '13\\n'"),
    (("verify", "--primes", "2..5\n"), "--primes expects A..B, got '2..5\\n'"),
])
def test_integers_in_other_digits_exit_two(capsys, argv, message):
    # argparse's type=int and the --primes pattern's \d read these as 13 and
    # 2..10; int() also strips a trailing newline, and a pattern's `$` matches
    # before one
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_signed_prime_keeps_its_sign(capsys):
    code, out, err = run(capsys, "hecke", "-p", "-5")
    assert (code, out, err) == (1, "", "error: -5 is not prime\n")


def test_file_that_is_not_utf8_exits_two(capsys, tmp_path):
    path = tmp_path / "latin1.cw"
    path.write_bytes(b"name = caf\xe9\n[cells.0]\nv = 1\n")
    code, out, err = run(capsys, "complex", "--file", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "utf-8" in err


def test_large_torsion_order_is_not_factored(tmp_path):
    # (10^9 + 7)(10^9 + 9): trial division would run for minutes
    path = tmp_path / "big.cw"
    path.write_text("name = big\n[cells.0]\nv = 1\n[cells.1]\ne = 1\n"
                    "[matrix.1]\n1000000016000000063\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "equiko.cli", "complex", "--file", str(path)],
                          env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0
    assert "H0 = Z/1000000016000000063\n" in done.stdout


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_output_too_large_to_build_exits_one(fmt):
    # b = 166666666666683 summands Z/2: the KO3 line alone would take 10^15 bytes
    resource = pytest.importorskip("resource")

    def cap_address_space():  # runs in the child only, so no limit of this process moves
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "equiko.cli", "cstar", "-p", "1000000000000091", "--ko",
         "--format", fmt],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_address_space,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


_HUGE_CONE = "Zm(1000000000000000000000)"


@pytest.mark.parametrize("text, flags", [
    # a chain group of rank 10^21: no list has that many entries
    (f"name = big\n[cells.0]\nv = {_HUGE_CONE}\n[cells.1]\ne = 1\n"
     f"[boundary.1]\ne = +1 * v : triv->{_HUGE_CONE}\n", ()),
    # (Z/2)^70: its KO1 has 2^70 summands Z/2, a count no string repeat takes
    ("name = twos\n[cells.0]\nv = " + "Z2x" * 69 + "Z2\n", ("--ko",)),
], ids=["rank", "summands"])
def test_result_too_large_to_index_exits_one(capsys, tmp_path, text, flags):
    path = tmp_path / "huge.cw"
    path.write_text(text)
    code, out, err = run(capsys, "complex", "--file", str(path), *flags)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_nested_z2_products_are_read(capsys, tmp_path):
    path = tmp_path / "z2-to-the-4.cw"
    path.write_text("name = z2-to-the-4\n\n[cells.0]\nv = Z2xZ2xZ2xZ2\n")
    code, out, _ = run(capsys, "complex", "--file", str(path))
    assert code == 0 and "H0 = Z^16" in out.splitlines()
    code, out, _ = run(capsys, "complex", "--file", str(path), "--ko")
    lines = out.splitlines()
    assert code == 0
    assert "KO0 = Z^16" in lines
    assert f"KO1 = {FinAbGroup(0, ((2, 16),))}" in lines
    assert run(capsys, "complex", "--file", str(path), "--emit") == (0, path.read_text(), "")


def _spawn(*argv, unbuffered=False, **options):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "COLUMNS": "80"}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    options.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "equiko.cli", *argv], env=env,
                          encoding="utf-8", timeout=60, **options)


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help"), ("nosuchcommand",),
                                  ("sl3", "--format", "xml")])
def test_help_and_usage_errors_through_the_entry_point(capsys, monkeypatch, argv):
    # argparse ends --help with SystemExit(0) and a usage error with SystemExit(2)
    monkeypatch.setenv("COLUMNS", "80")
    expected = run(capsys, *argv)
    assert expected[0] == (2 if "--help" not in argv else 0)
    done = _spawn(*argv, stdout=subprocess.PIPE)
    assert (done.returncode, done.stdout, done.stderr) == expected


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, unbuffered", [
    (("sl3",), False),  # fits stdout's buffer: fails at the flush, after `main` returned 0
    (("cstar", "-p", "10007", "--ko"), False),  # ~10 KB: fails in a write inside `main`
    (("sl3",), True),  # every print writes through
], ids=["flush", "buffer-full", "unbuffered"])
def test_output_to_a_full_disk_exits_one(argv, unbuffered):
    with open("/dev/full", "w") as full:
        done = _spawn(*argv, unbuffered=unbuffered, stdout=full)
    assert done.returncode == 1
    assert done.stderr.startswith("error: cannot write output: [Errno 28] ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    with open("/dev/full", "w") as full:  # stderr too: the exit code still says so
        assert _spawn(*argv, unbuffered=unbuffered, stdout=full, stderr=full).returncode == 1


def test_output_to_a_closed_pipe_exits_one():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _spawn("cstar", "-p", "10007", "--ko", stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


def test_closed_stdout_is_not_an_error():
    # started with fd 1 closed, the process has no sys.stdout; print drops the output
    done = _spawn("sl3", preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize(
    "boundaries",
    [
        "[matrix.1]\n1\n[matrix.2]\n1\n",
        "[boundary.1]\ne = +1 * v : id\n[boundary.2]\nf = +1 * e : id\n",
    ],
    ids=["matrix", "terms"],
)
def test_file_whose_boundaries_do_not_compose_to_zero_exits_two(capsys, tmp_path, boundaries):
    # d1 d2 = 1 on one trivial cell per dimension: a malformed file, not a domain error
    path = tmp_path / "dd.cw"
    path.write_text("name = dd\n[cells.0]\nv = 1\n[cells.1]\ne = 1\n[cells.2]\nf = 1\n"
                    + boundaries)
    code, out, err = run(capsys, "complex", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: composite of differentials through degree 1 is nonzero\n"


@pytest.mark.parametrize(
    "argv",
    [
        # orbifold Euler characteristic >= 0: sphere, spindle, torus, annulus, pillowcase
        ("[0,0;]",), ("[0,0;2,3]",), ("[1,0;]",), ("[0,2;]",), ("[0,0;2,2,2,2]",),
        ("[0,2;]", "--lift"), ("[0,1;2,2]", "--lift"),
    ],
)
def test_fuchsian_refuses_non_hyperbolic_signatures(capsys, argv):
    code, out, err = run(capsys, "fuchsian", "--signature", *argv)
    assert (code, out) == (2, "")
    assert "not hyperbolic" in err


def test_verify_refuses_descending_prime_range(capsys):
    code, out, err = run(capsys, "verify", "--primes", "200..2")
    assert (code, out) == (2, "")
    assert err == "error: --primes expects A <= B, got '200..2'\n"


@pytest.mark.parametrize("primes", ["24..28", "0..1", "90..96", "1..1"])
def test_verify_refuses_prime_range_without_primes(capsys, primes):
    # the prime sweeps would pass vacuously on an empty range
    code, out, err = run(capsys, "verify", "--primes", primes)
    assert (code, out) == (2, "")
    assert err == f"error: --primes range {primes!r} contains no prime\n"


def test_verify_accepts_a_one_prime_range(capsys):
    code, out, err = run(capsys, "verify", "--primes", "2..2")
    assert (code, err) == (0, "")
    assert "PASS hecke: 1 primes, chain = closed form; table rows match\n" in out
    assert "PASS gauss-bonnet: 6 chi_orb = -(p+1) for 1 primes; cell sums match on 6 data\n" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_refuses_a_prime_range_past_the_primality_test(capsys, monkeypatch, fmt):
    # a domain error like `hecke -p 18446744073709551616`, found before any sweep
    monkeypatch.setattr(cli.verify_mod, "verify_all", lambda lo, hi: pytest.fail("swept"))
    primes = "18446744073709551557..18446744073709551616"
    assert run(capsys, "verify", "--primes", primes, "--format", fmt) == (
        1, "", "error: 18446744073709551616 is outside the proven range n < 2**64 "
               "of the primality test\n")


def test_errors_go_to_stderr(capsys):
    code, out, err = run(capsys, "hecke", "-p", "15")
    assert out == "" and "not prime" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--primes", "2..60")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--primes", "2..40", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    assert len(doc["checks"]) >= 10


def test_verify_detects_corruption(capsys, monkeypatch):
    # a wrong built-in complex must turn the sweep red
    monkeypatch.setattr(
        bredon,
        "sl3_datum",
        lambda: fuchsian_datum(MODULAR_SIGNATURE),
    )
    code, out, _ = run(capsys, "verify", "--primes", "2..40")
    assert code == 3
    assert "FAIL" in out
