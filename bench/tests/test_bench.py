"""Tests of the benchmark itself: generators, oracle, span arithmetic, runner.

    python3 -m pytest bench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _first_rounds(workload, seed, n=2):
    gen = workloads.rounds(workload, seed, "work")
    return [next(gen) for _ in range(n)]


def test_generator_is_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        assert _first_rounds(w, 7) == _first_rounds(w, 7)
        assert _first_rounds(w, 7) != _first_rounds(w, 8)


def test_rounds_have_a_fixed_op_mix():
    for w in workloads.WORKLOADS:
        a, b = _first_rounds(w, 3)
        assert [op.kind for op in a] == [op.kind for op in b]


def _det(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return int(det)


def _minor_gcd_factors(m):
    """Invariant factors as quotients of determinantal divisors."""
    from math import gcd

    out, prev = [], 1
    for k in range(1, min(len(m), len(m[0])) + 1):
        g = 0
        for rs in combinations(range(len(m)), k):
            for cs in combinations(range(len(m[0])), k):
                g = gcd(g, _det([[m[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_dense_generator_builds_a_complex_with_its_stated_factors():
    rng = random.Random(5)
    d1, d2, spec = workloads.dense_complex(rng, 3, 3, free=(1, 1, 1), mix=4, coeff=2)
    n0, n1, n2 = spec["ranks"]
    assert (len(d1), len(d1[0]), len(d2), len(d2[0])) == (n0, n1, n1, n2)
    assert all(sum(d1[i][t] * d2[t][j] for t in range(n1)) == 0
               for i in range(n0) for j in range(n2))
    assert any(abs(x) > 6 for row in d1 + d2 for x in row)  # the bases were mixed
    for matrix, factors in ((d1, spec["k10"]), (d2, spec["k21"])):
        got = _minor_gcd_factors(matrix)
        assert len(got) == len(factors)
        assert [f for f in got if f > 1] == oracle.invariant_factors(factors)


def _text(op):
    return "\n".join(oracle.expected(op)[1])


def test_oracle_reproduces_published_values():
    sig = Op("fuchsian", ("fuchsian", "--signature", "[0,0;2,3,7]"),
             {"g": 0, "s": 0, "periods": (2, 3, 7), "lift": False})
    assert _text(sig).startswith("K0 = Z^11, K1 = 0\n")
    lift = Op("fuchsian", ("fuchsian", "--signature", "[0,1;2,3]", "--lift"),
              {"g": 0, "s": 1, "periods": (2, 3), "lift": True})
    assert _text(lift).startswith("K0 = Z^8, K1 = 0\n")
    assert _text(Op("sl3", ("sl3",), {"ko": False})).startswith("K0 = Z^8, K1 = 0\n")
    assert _text(Op("hecke", ("hecke", "-p", "23"), {"p": 23})) == (
        "signature = [2,2;]\nH0 = Z\nH1 = Z^5")
    assert _text(Op("psl2zp", ("psl2zp", "-p", "17"), {"p": 17})).startswith("K0 = Z^9, K1 = Z\n")
    assert _text(Op("sl2zp", ("sl2zp", "-p", "13"), {"p": 13})).startswith("K0 = Z^10, K1 = Z^6\n")
    ko = _text(Op("cstar", ("cstar", "-p", "11", "--ko"), {"p": 11, "ko": True})).splitlines()
    assert ko[:2] == ["KO0 = Z^5", "KO1 = Z/2 + Z/2 + Z/2 (up to extension)"]


def test_true_hecke_signatures():
    # Genus of X_0(p): 0 for p in {2,3,5,7,13}, 1 for 11, 2 for 23, 3 for 37.
    assert oracle.hecke_signature(2) == "[0,2;2]"
    assert oracle.hecke_signature(3) == "[0,2;3]"
    assert oracle.hecke_signature(13) == "[0,2;2,2,3,3]"
    assert oracle.hecke_signature(11) == "[1,2;]"
    assert oracle.hecke_signature(37) == "[2,2;2,2,3,3]"


def test_oracle_separates_the_known_defect_from_wrong_output():
    op = Op("hecke", ("hecke", "-p", "23"), {"p": 23})
    printed_today = b"signature = [0,6;]\nH0 = Z\nH1 = Z^5\n"
    assert oracle.check(op, 0, printed_today) == "known-defect"
    assert oracle.check(op, 0, b"signature = [2,2;]\nH0 = Z\nH1 = Z^5\n") == "ok"
    assert oracle.check(op, 0, b"signature = [0,6;]\nH0 = Z\nH1 = Z^4\n").startswith("wrong")
    assert oracle.check(op, 1, printed_today).startswith("wrong")
    js = Op("hecke", ("hecke", "-p", "23", "--format", "json"), {"p": 23})
    doc = {"command": "hecke", "inputs": {"p": 23}, "groups": {"H0": "Z", "H1": "Z^5"},
           "extension_ambiguous": False, "signature": "[0,6;]"}
    assert oracle.check(js, 0, json.dumps(doc).encode()) == "known-defect"


def test_invariant_factor_canonical_form():
    assert oracle.group(0, [2, 3]) == "Z/6"
    assert oracle.group(2, [2, 4, 3]) == "Z^2 + Z/2 + Z/12"
    assert oracle.group(1, [1, 1]) == "Z"
    assert oracle.group(0) == "0"


def test_span_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 4.75, 5.0, 10.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    rec.enter("a")      # 0
    rec.enter("b")      # 1
    rec.exit()          # 3: b lasted 2
    rec.enter("c")      # 4
    rec.enter("c")      # 4.5: recursion
    rec.exit()          # 4.75
    rec.exit()          # 5: outer c lasted 1, its child 0.25
    rec.exit()          # 10: a lasted 10, children 3
    assert rec.spans == {"a": [1, 7.0], "b": [1, 2.0], "c": [2, 1.0]}
    assert sum(s for _, s in rec.spans.values()) == 10.0


def test_layer_metrics_aggregate_per_op():
    def trace(snf_self, max_bits):
        return {"import_s": 0.02, "spans": {"cli.main": [1, 0.01],
                                            "exactlinalg.smith_normal_form": [2, snf_self],
                                            "tracer.hook": [2, 5.0]},
                "counters": {"snf_calls": 2, "boundary_snf_calls": 2, "boundaries": 1,
                             "unit_factors": 3, "invariant_factors": 4,
                             "transform_max_bits": max_bits},
                "checks": {"hecke": 1.5}}
    m = tracer.layer_metrics([trace(0.5, 3), trace(1.5, 9)], 0.1)
    assert m["exactlinalg.snf_s"] == (1.0, "s/op")
    assert m["cli.self_s"] == (0.01, "s/op")
    assert m["exactlinalg.snf_calls_per_boundary"] == (2.0, "ratio")
    assert m["exactlinalg.unit_factor_frac"] == (0.75, "ratio")
    assert m["exactlinalg.transform_max_bits"] == (9, "bit")
    assert m["verify.hecke_s"] == (1.5, "s/op")
    assert m["verify.snf_s"] == (0.0, "s/op")
    assert m["trace_overhead_frac"] == (0.1, "ratio")
    layers = sum(v for k, (v, u) in m.items()
                 if u == "s/op" and k != "cli.import_s" and not k.startswith("verify."))
    assert abs(layers - 1.01) < 1e-12  # tracer.hook is left out


def test_an_op_past_its_timeout_is_killed_and_reaped(tmp_path):
    runner = run.Runner(BENCH.parent, tmp_path, time.monotonic() + 0.5)
    t0 = time.monotonic()
    out = runner.spawn(["-c", "import time; print('started', flush=True); time.sleep(30)"])
    assert time.monotonic() - t0 < 10
    assert out.code is None and out.started and "timeout" in out.reason
    assert out.stdout == b"started\n"
    late = run.Runner(BENCH.parent, tmp_path, time.monotonic() - 1).spawn(["-c", "pass"])
    assert not late.started and late.code is None


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("tests", "__pycache__"))
    r = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_small", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert r.returncode != 0 and r.stdout == ""


def test_one_round_of_cli_small_end_to_end():
    r = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "cli_small",
                        "--seed", "4", "--seconds", "0", "--trace", "1"],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    ops = next(workloads.rounds("cli_small", 4, "work"))
    assert result["correct"] and result["attempted"] == len(ops)
    assert result["failed"] == sum(op.kind == "hecke" for op in ops)
    assert result["metrics"]["exactlinalg.snf_calls_per_boundary"]["value"] == 2.0
    assert result["metrics"]["cli.import_s"]["value"] > 0


def test_verify_oracle_counts_the_swept_primes_itself():
    op = Op("verify", ("verify", "--primes", "2..200"), {"lo": 2, "hi": 200})
    hecke = "PASS hecke: 46 primes, chain = closed form; table rows match"
    passing = "\n".join(["PASS sl3-bredon: fine", hecke, "2/2 checks passed"]).encode()
    assert oracle.check(op, 0, passing) == "ok"
    assert oracle.check(op, 0, passing.replace(b"46 primes", b"45 primes")).startswith("wrong")
    assert oracle.check(op, 3, passing.replace(b"PASS sl3", b"FAIL sl3")).startswith("wrong")
