"""Expected CLI output for every benchmark op, derived without equiko.

Values come from published closed forms and from the construction of each
input, never from the package under test:

* SL_3(Z) and GL_3(Z): the published K/KO groups listed in the README,
  GL_3 being the rank-doubled SL_3 answer;
* Fuchsian signatures: K_0 = Z^(1 + sum(m_j - 1) + [s = 0]),
  K_1 = Z^(2g + s - 1) (or Z^2g when s = 0), doubled for the central Z/2 lift;
* Gamma_0(p): genus g = 1 + (p+1)/12 - e2/4 - e3/3 - 1 with e2 = 1 + (-1/p),
  e3 = 1 + (-3/p) (Legendre symbols by Euler's criterion) and two cusps, so
  the signature is [g,2; 2^e2, 3^e3], H_0 = Z^(1 + e2 + 2 e3), H_1 = Z^(2g+1);
* PSL_2(Z[1/p]) by Mayer-Vietoris over Gamma_0(p): H_0 counts finite-order
  classes, H_2 = H_1(Gamma_0(p)), H_1 is forced by exactness; SL_2 doubles;
* p = 11 mod 12 C*-algebras: the summand formulas with b = (p + 7)/6;
* Gamma-CW files: the homology the generator built in.
"""

from __future__ import annotations

import json
import re

from workloads import primes_below

BOTT = "remaining groups by Bott periodicity"
KNOWN_DEFECT = "hecke prints a genus-0 signature, not the true Gamma_0(p) signature"


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders) -> list[int]:
    """Cyclic orders -> ascending invariant factors (each divides the next)."""
    powers: dict[int, list[int]] = {}
    for n in orders:
        for p, e in _factorize(n).items():
            powers.setdefault(p, []).append(p**e)
    depth = max((len(v) for v in powers.values()), default=0)
    factors = [1] * depth
    for v in powers.values():
        for k, q in enumerate(sorted(v, reverse=True)):
            factors[k] *= q
    return sorted(f for f in factors if f > 1)


def group(free: int, orders=()) -> str:
    terms = [] if free == 0 else ["Z" if free == 1 else f"Z^{free}"]
    terms += [f"Z/{d}" for d in invariant_factors(orders)]
    return " + ".join(terms) if terms else "0"


def _z2s(n: int) -> list[int]:
    return [2] * n


#: KO_n of SL_3(Z), n = 0..7 (free rank, number of Z/2).
SL3_KO = ((8, 0), (0, 8), (0, 8), (0, 0), (8, 0), (0, 0), (0, 0), (0, 0))


def hecke_data(p: int) -> tuple[int, int, int]:
    """(genus, e2, e3) of Gamma_0(p) for a prime p."""
    if p == 2:
        e2, e3 = 1, 0
    else:
        # Euler's criterion: a^((p-1)/2) = (a/p) mod p.
        e2 = 1 + {1: 1, p - 1: -1}[pow(p - 1, (p - 1) // 2, p)]
        e3 = 1 if p == 3 else 1 + {1: 1, p - 1: -1}[pow(p - 3, (p - 1) // 2, p)]
    twelve_g = (p + 1) - 3 * e2 - 4 * e3
    if twelve_g % 12:
        raise ValueError(f"genus formula is not integral for p={p}")
    return twelve_g // 12, e2, e3


def hecke_signature(p: int) -> str:
    g, e2, e3 = hecke_data(p)
    return f"[{g},2;{','.join(['2'] * e2 + ['3'] * e3)}]"


def psl_bredon_ranks(p: int) -> tuple[int, int, int]:
    g, e2, e3 = hecke_data(p)
    classes = 1 + (1 if e2 else 2) + (2 if e3 else 4)
    h0_edge, h1_edge = 1 + e2 + 2 * e3, 2 * g + 1
    return classes, h0_edge - 8 + classes, h1_edge


def cstar_ko(p: int) -> list[str]:
    b = (p + 7) // 6
    return [group(5), group(0, _z2s(3)), group(2 + b, _z2s(3)), group(0, _z2s(b)),
            group(5, _z2s(b)), "0", group(2 + b), "0"]


def _signature_key(text: str):
    m = re.fullmatch(r"\[(\d+),(\d+);([\d,]*)\]", text.strip())
    if not m:
        return text
    periods = sorted(int(x) for x in m.group(3).split(",") if x)
    return int(m.group(1)), int(m.group(2)), periods


def _k_part(k0: str, k1: str):
    return {"K0": k0, "K1": k1}, [f"K0 = {k0}, K1 = {k1}", BOTT]


def _ko_part(ko: list[str], ambiguous=()):
    groups = {f"KO{n}": g for n, g in enumerate(ko)}
    lines = [f"KO{n} = {g}" + (" (up to extension)" if n in ambiguous else "")
             for n, g in enumerate(ko)]
    return groups, lines + [BOTT]


def expected(op) -> tuple[dict, list[str]]:
    """(JSON document, text lines) the CLI must print for `op`."""
    s, kind = op.spec, op.kind
    inputs, extra, ambiguous = {}, {}, ()
    if kind in ("sl3", "gl3"):
        scale = 2 if kind == "gl3" else 1
        if s["ko"]:
            groups, lines = _ko_part([group(scale * f, _z2s(scale * t)) for f, t in SL3_KO])
        else:
            groups, lines = _k_part(group(8 * scale), "0")
    elif kind == "fuchsian":
        g, cusps, periods = s["g"], s["s"], s["periods"]
        h0 = 1 + sum(m - 1 for m in periods)
        k0, k1 = (h0 + 1, 2 * g) if cusps == 0 else (h0, 2 * g + cusps - 1)
        if s["lift"]:
            k0, k1 = 2 * k0, 2 * k1
        sig = f"[{g},{cusps};{','.join(str(m) for m in periods)}]"
        inputs = {"signature": sig, "lift": s["lift"]}
        groups, lines = _k_part(group(k0), group(k1))
    elif kind == "hecke":
        p = s["p"]
        g, e2, e3 = hecke_data(p)
        sig = hecke_signature(p)
        inputs, extra = {"p": p}, {"signature": sig}
        groups = {"H0": group(1 + e2 + 2 * e3), "H1": group(2 * g + 1)}
        lines = [f"signature = {sig}", f"H0 = {groups['H0']}", f"H1 = {groups['H1']}"]
    elif kind in ("psl2zp", "sl2zp"):
        h0, h1, h2 = psl_bredon_ranks(s["p"])
        scale = 2 if kind == "sl2zp" else 1
        inputs = {"p": s["p"]}
        groups, lines = _k_part(group(scale * (h0 + h2)), group(scale * h1))
    elif kind == "cstar":
        p = s["p"]
        inputs = {"p": p, "ko": s["ko"]}
        if s["ko"]:
            ambiguous = (1, 3, 4)
            groups, lines = _ko_part(cstar_ko(p), ambiguous)
        else:
            groups, lines = _k_part(group(7 + (p + 7) // 6), "0")
    elif kind == "complex":
        if "k21" in s:
            f0, f1, f2 = s["free"]
            h = [group(f0, s["k10"]), group(f1, s["k21"]), group(f2)]
            k0 = group(f0 + f2, s["k10"])
        else:
            h = [group(r) for r in s["h"]]
            k0 = group(s["h"][0] + (s["h"][2] if len(s["h"]) > 2 else 0))
        inputs, extra = {"file": s["file"], "ko": False}, {"name": s["name"]}
        k_groups, k_lines = _k_part(k0, h[1])
        groups = {f"H{n}": g for n, g in enumerate(h)} | k_groups
        lines = [f"name = {s['name']}"] + [f"H{n} = {g}" for n, g in enumerate(h)] + k_lines
    else:
        raise ValueError(f"no oracle for {kind!r}")
    doc = {"command": kind, "inputs": inputs, "groups": groups,
           "extension_ambiguous": bool(ambiguous)}
    if ambiguous:
        doc["ambiguous_degrees"] = sorted(ambiguous)
    doc.update(extra)
    return doc, lines


def _check_verify(op, text: str) -> str:
    lines = text.splitlines()
    if not lines:
        return "wrong: empty output"
    checks = lines[:-1]
    failing = [ln for ln in checks if not ln.startswith("PASS ")]
    if failing:
        return f"wrong: {failing[0]}"
    if lines[-1] != f"{len(checks)}/{len(checks)} checks passed":
        return f"wrong: summary line {lines[-1]!r}"
    n = sum(1 for p in primes_below(op.spec["hi"] + 1) if p >= op.spec["lo"])
    hecke = [ln for ln in checks if ln.startswith("PASS hecke:")]
    if hecke != [f"PASS hecke: {n} primes, chain = closed form; table rows match"]:
        return f"wrong: hecke sweep should cover {n} primes, got {hecke}"
    return "ok"


def check(op, code: int, stdout: bytes) -> str:
    """'ok', 'known-defect' (only KNOWN_DEFECT differs) or 'wrong: ...'."""
    if code != 0:
        return f"wrong: exit code {code}"
    text = stdout.decode("utf-8", "replace")
    if op.kind == "verify":
        return _check_verify(op, text)
    doc, lines = expected(op)
    if "json" in op.args:
        try:
            got = json.loads(text)
        except ValueError:
            return "wrong: output is not JSON"
        if got == doc:
            return "ok"
        if op.kind == "hecke" and isinstance(got, dict) and "signature" in got:
            if {**got, "signature": doc["signature"]} == doc:
                return _hecke_signature_verdict(got["signature"], doc["signature"])
        return f"wrong: got {got}, expected {doc}"
    got_lines = text.splitlines()
    if got_lines == lines:
        return "ok"
    if (op.kind == "hecke" and len(got_lines) == len(lines)
            and got_lines[1:] == lines[1:] and got_lines[0].startswith("signature = ")):
        return _hecke_signature_verdict(got_lines[0].removeprefix("signature = "),
                                        doc["signature"])
    return f"wrong: got {got_lines}, expected {lines}"


def _hecke_signature_verdict(got: str, want: str) -> str:
    # Periods form a multiset, so their order is free.
    return "ok" if _signature_key(got) == _signature_key(want) else "known-defect"
