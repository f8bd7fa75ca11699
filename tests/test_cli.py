"""Command-line interface: output shapes, exit codes, determinism."""

import json

import pytest

from equiko import bredon, cli
from equiko.bredon import fuchsian_noncocompact_datum
from equiko.cwfile import format_cw
from equiko.fuchsian import MODULAR_SIGNATURE


def run(capsys, *argv):
    code = cli.main(list(argv))
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
    path.write_text(format_cw(fuchsian_noncocompact_datum(MODULAR_SIGNATURE)))
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
    assert out == open(modular_file).read()


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
    assert run(capsys, "fuchsian", "--signature", "nope")[0] == 2
    assert run(capsys, "complex", "--file", str(tmp_path / "missing.cw"))[0] == 2
    bad = tmp_path / "bad.cw"
    bad.write_text("name = x\n[cells.0]\nv = Q8\n")
    assert run(capsys, "complex", "--file", str(bad))[0] == 2
    assert run(capsys, "verify", "--primes", "zzz")[0] == 2


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
    assert "PASS mayer-vietoris: four-term exactness holds for 1 primes\n" in out


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
        lambda: fuchsian_noncocompact_datum(MODULAR_SIGNATURE),
    )
    code, out, _ = run(capsys, "verify", "--primes", "2..40")
    assert code == 3
    assert "FAIL" in out
