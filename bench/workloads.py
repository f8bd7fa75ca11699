"""Seeded inputs for the benchmark workloads.

A workload is an endless sequence of *rounds*.  A round is a fixed list of
op kinds; the seed picks each op's input, keeping costly sizes inside narrow
bands around fixed centres.  The runner only ever completes whole rounds, so
the op mix, the median op and the largest op of a run are the same whatever
the number of rounds that fit in its time budget.

An `Op` carries the CLI argv, the input files it needs and a `spec`, the
plain description of the mathematical object from which `oracle` derives
the expected output without importing equiko.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("cli_small", "verify_sweep", "cw_sparse", "cw_dense")


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple[str, ...]
    spec: dict
    files: dict[str, str] = field(default_factory=dict)


def cyclic_name(m: int) -> str:
    return f"Z{m}" if m in (2, 3, 4, 6) else f"Zm({m})"


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * max(n, 2)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


_PRIMES = primes_below(10_000)
# Gamma_0(p) has genus >= 1 exactly for p >= 17 (genus 0: 2, 3, 5, 7, 13).
_HECKE_PRIMES = [p for p in _PRIMES if p >= 17]
_P11_PRIMES = [p for p in _PRIMES if p % 12 == 11]


def near(rng: random.Random, centre: int, spread: float) -> int:
    """An integer within +-spread (a fraction) of `centre`."""
    width = max(1, round(centre * spread))
    return centre + rng.randint(-width, width)


def _fmt_signature(g: int, s: int, periods) -> str:
    return f"[{g},{s};{','.join(str(m) for m in periods)}]"


def _is_hyperbolic(g: int, s: int, periods) -> bool:
    chi = 2 - 2 * g - s - sum(1 - Fraction(1, m) for m in periods)
    return chi < 0


def _hyperbolic_signature(rng, g_max, s_range, period_choices, r_max):
    while True:
        g = rng.randint(0, g_max)
        s = rng.randint(*s_range)
        periods = sorted(rng.choice(period_choices) for _ in range(rng.randint(0, r_max)))
        if _is_hyperbolic(g, s, periods):
            return g, s, tuple(periods)


# -- Gamma-CW files -----------------------------------------------------------


def graph_of_groups_cw(name: str, loops: int, cones, lift: bool = False) -> str:
    """A graph of groups: a free vertex with `loops` loops, one pendant edge
    into a cone vertex Z/m per entry of `cones`.  With `lift`, every group
    is multiplied by a central Z/2 (vertex Z/2, cones Z/2m, edges Z/2)."""
    edge_group = "Z2" if lift else "1"
    lines = [f"name = {name}", "", "[cells.0]", f"z = {edge_group}"]
    lines += [f"p{j + 1} = {cyclic_name(2 * m if lift else m)}" for j, m in enumerate(cones)]
    lines += ["", "[cells.1]"]
    lines += [f"l{i + 1} = {edge_group}" for i in range(loops)]
    lines += [f"d{j + 1} = {edge_group}" for j in range(len(cones))]
    lines += ["", "[boundary.1]"]
    lines += [f"l{i + 1} = +1 * z : id, -1 * z : id" for i in range(loops)]
    for j, m in enumerate(cones):
        spec = f"Z2->{cyclic_name(2 * m)}" if lift else f"triv->{cyclic_name(m)}"
        lines.append(f"d{j + 1} = +1 * p{j + 1} : {spec}, -1 * z : id")
    return "\n".join(lines) + "\n"


def polygon_cw(name: str, genus: int, periods) -> str:
    """The fundamental polygon of a cocompact signature [genus,0;periods]."""
    edges = [f"a{i + 1}" for i in range(2 * genus)]
    edges += [f"y{j + 1}" for j in range(len(periods))]
    lines = [f"name = {name}", "", "[cells.0]", "z = 1"]
    lines += [f"c{j + 1} = {cyclic_name(m)}" for j, m in enumerate(periods)]
    lines += ["", "[cells.1]"] + [f"{e} = 1" for e in edges]
    lines += ["", "[cells.2]", "w = 1", "", "[boundary.1]"]
    lines += [f"a{i + 1} = +1 * z : id, -1 * z : id" for i in range(2 * genus)]
    lines += [
        f"y{j + 1} = +1 * c{j + 1} : triv->{cyclic_name(m)}, -1 * z : id"
        for j, m in enumerate(periods)
    ]
    lines += ["", "[boundary.2]"]
    lines.append("w = " + ", ".join(f"+1 * {e} : id, -1 * {e} : id" for e in edges))
    return "\n".join(lines) + "\n"


def dense_complex(rng: random.Random, n_pairs21: int, n_pairs10: int,
                  free=(2, 2, 2), mix: int = 4, coeff: int = 2):
    """A 2-dimensional complex with known homology.

    It is a direct sum of elementary complexes Z --k--> Z (k in 1..6) from
    degree 2 to 1 and from degree 1 to 0, plus free summands, with every
    chain group's basis changed by a random unimodular matrix built from
    `mix` * rank elementary operations with multipliers up to `coeff`.
    Returns (d1, d2, spec): d1 is n0 x n1, d2 is n1 x n2, d1 @ d2 = 0, and
    spec holds the elementary factors and free ranks.
    """
    f0, f1, f2 = free
    k21 = [rng.randint(1, 6) for _ in range(n_pairs21)]
    k10 = [rng.randint(1, 6) for _ in range(n_pairs10)]
    n0, n1, n2 = n_pairs10 + f0, n_pairs10 + n_pairs21 + f1, n_pairs21 + f2
    d1 = [[0] * n1 for _ in range(n0)]
    d2 = [[0] * n2 for _ in range(n1)]
    for i, k in enumerate(k10):
        d1[i][i] = k
    for i, k in enumerate(k21):
        d2[n_pairs10 + i][i] = k

    def multiplier():
        return rng.choice([c for c in range(-coeff, coeff + 1) if c])

    def pair(n):
        i, j = rng.sample(range(n), 2)
        return i, j

    # C_1: E = I + c e_ij acts as d2 <- E d2 and d1 <- d1 E^-1.
    for _ in range(mix * n1):
        i, j = pair(n1)
        c = multiplier()
        for col in range(n2):
            d2[i][col] += c * d2[j][col]
        for row in d1:
            row[j] -= c * row[i]
    # C_0: row operations on d1.  C_2: column operations on d2.
    for _ in range(mix * n0):
        i, j = pair(n0)
        c = multiplier()
        d1[i] = [a + c * b for a, b in zip(d1[i], d1[j])]
    for _ in range(mix * n2):
        i, j = pair(n2)
        c = multiplier()
        for row in d2:
            row[i] += c * row[j]
    spec = {"k21": k21, "k10": k10, "free": [f0, f1, f2], "ranks": [n0, n1, n2]}
    return d1, d2, spec


def matrix_cw(name: str, d1, d2, ranks) -> str:
    n0, n1, n2 = ranks
    lines = [f"name = {name}", "", "[cells.0]"]
    lines += [f"v{i + 1} = 1" for i in range(n0)]
    lines += ["", "[cells.1]"] + [f"e{i + 1} = 1" for i in range(n1)]
    lines += ["", "[cells.2]"] + [f"f{i + 1} = 1" for i in range(n2)]
    lines += ["", "[matrix.1]"] + [" ".join(map(str, row)) for row in d1]
    lines += ["", "[matrix.2]"] + [" ".join(map(str, row)) for row in d2]
    return "\n".join(lines) + "\n"


# -- rounds -------------------------------------------------------------------


def _fmt(args, json_format: bool):
    return tuple(args) + (("--format", "json") if json_format else ())


def _cli_small_round(rng: random.Random, tag: str, workdir: str) -> list[Op]:
    ops = []
    for cmd, ko, js in (("sl3", False, False), ("sl3", True, True),
                        ("gl3", False, True), ("gl3", True, False)):
        ops.append(Op(cmd, _fmt((cmd,) + (("--ko",) if ko else ()), js), {"ko": ko}))
    for js, cusped in ((False, False), (True, True)):
        g, s, periods = _hyperbolic_signature(
            rng, 40, (1, 30) if cusped else (0, 0), range(2, 60), 6)
        sig = _fmt_signature(g, s, periods)
        ops.append(Op("fuchsian", _fmt(("fuchsian", "--signature", sig), js),
                      {"g": g, "s": s, "periods": periods, "lift": False}))
    for js in (False, True):
        g, s, periods = _hyperbolic_signature(rng, 3, (1, 4), (2, 3), 4)
        sig = _fmt_signature(g, s, periods)
        ops.append(Op("fuchsian", _fmt(("fuchsian", "--signature", sig, "--lift"), js),
                      {"g": g, "s": s, "periods": periods, "lift": True}))
    for cmd, js in (("hecke", False), ("hecke", True), ("psl2zp", False), ("sl2zp", True)):
        p = rng.choice(_HECKE_PRIMES)
        ops.append(Op(cmd, _fmt((cmd, "-p", str(p)), js), {"p": p}))
    for ko, js in ((False, False), (True, True)):
        p = rng.choice(_P11_PRIMES)
        ops.append(Op("cstar", _fmt(("cstar", "-p", str(p)) + (("--ko",) if ko else ()), js),
                      {"p": p, "ko": ko}))
    for k, js in enumerate((False, True)):
        loops = rng.randint(0, 3)
        cones = [rng.randint(2, 12) for _ in range(rng.randint(1, 4))]
        name = f"small{tag}x{k}"
        path = f"{workdir}/{name}.cw"
        ops.append(Op("complex", _fmt(("complex", "--file", path), js),
                      {"name": name, "file": path, "h": [1 + sum(m - 1 for m in cones), loops]},
                      {path: graph_of_groups_cw(name, loops, cones)}))
    return ops


def _verify_round(rng: random.Random, tag: str, workdir: str) -> list[Op]:
    # B spans about 1000..2000; the sweep's cost grows like B^3, so each
    # size keeps a narrow band.
    ops = []
    for centre in (1100, 1500, 1900):
        b = near(rng, centre, 0.008)
        ops.append(Op("verify", ("verify", "--primes", f"2..{b}"), {"lo": 2, "hi": b}))
    return ops


def _cw_sparse_round(rng: random.Random, tag: str, workdir: str) -> list[Op]:
    # (shape, cone orders, loops, lift, json output)
    shapes = [
        # Tall: two big cone vertices.  The largest op is always [0,2;997,991]
        # (1989 x 3 boundary): its peak RSS sets the run's, and that jumps by
        # some 25 MB between neighbouring sizes as the allocator's layout changes.
        ("tall", [997, 991], 1, False, False),
        ("tall", [near(rng, 600, 0.005), near(rng, 600, 0.005)], 2, False, True),
        # Lift: central Z/2 extension, Z2 -> Zm(2m) inductions.
        ("lift", [near(rng, 350, 0.005), near(rng, 350, 0.005)], 2, True, False),
        # Wide: many cusps, as in [0,800;2,3,7,11,13] (37 x 804 boundary).
        ("cusps", [2, 3, 7, 11, 13], near(rng, 800, 0.02) - 1, False, True),
    ]
    ops = []
    for k, (shape, cones, loops, lift, js) in enumerate(shapes):
        name = f"{shape}{tag}x{k}"
        path = f"{workdir}/{name}.cw"
        h0 = 1 + sum(m - 1 for m in cones)
        h = [2 * h0, 2 * loops] if lift else [h0, loops]
        ops.append(Op("complex", _fmt(("complex", "--file", path), js),
                      {"name": name, "file": path, "h": h},
                      {path: graph_of_groups_cw(name, loops, cones, lift)}))
    # Wide: a high-genus polygon, as in [200,0;2,3,7] (13 x 403 and 403 x 1).
    genus = near(rng, 200, 0.02)
    periods = (2, 3, 7)
    name = f"polygon{tag}"
    path = f"{workdir}/{name}.cw"
    ops.append(Op("complex", _fmt(("complex", "--file", path), False),
                  {"name": name, "file": path,
                   "h": [1 + sum(m - 1 for m in periods), 2 * genus, 1]},
                  {path: polygon_cw(name, genus, periods)}))
    return ops


def _cw_dense_round(rng: random.Random, tag: str, workdir: str) -> list[Op]:
    # One size, about 34/66/34 cells in degrees 0/1/2: dense SNF time varies
    # by some 11% between complexes of one size, so a run's median needs
    # every op it can get.
    ops = []
    for k in range(3):
        pairs = (near(rng, 32, 0.03), near(rng, 32, 0.03))
        free = tuple(rng.randint(1, 3) for _ in range(3))
        d1, d2, spec = dense_complex(rng, *pairs, free)
        name = f"dense{tag}x{k}"
        path = f"{workdir}/{name}.cw"
        spec.update(name=name, file=path)
        ops.append(Op("complex", _fmt(("complex", "--file", path), k == 1), spec,
                      {path: matrix_cw(name, d1, d2, spec["ranks"])}))
    return ops


_ROUNDS = {
    "cli_small": _cli_small_round,
    "verify_sweep": _verify_round,
    "cw_sparse": _cw_sparse_round,
    "cw_dense": _cw_dense_round,
}


def rounds(workload: str, seed: int, workdir: str):
    """Yield the rounds of `workload` for `seed`; input files go in `workdir`."""
    make = _ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        yield make(rng, f"r{index}", workdir)
        index += 1
