"""End-to-end regression checks over every published value this package computes.

Each check recomputes results from first principles (chain complexes, Smith
normal form, power maps) and compares them against frozen expected values,
independent closed forms or Gauss-Bonnet.  `verify_all` returns one result
per check; the CLI turns any failure into exit code 3.  The `snf` check is
cut into parts that two lanes share: a forked child claims parts from the
start, and the parent claims the rest once its own checks are done.  All
randomness is seeded, so output is byte-identical run to run.
"""

from __future__ import annotations

import marshal
import os
import random
from functools import cache
from itertools import chain, combinations, islice, product
from math import gcd, lcm

from . import arithmetic_k, bredon, exactlinalg, fuchsian, groups, ko_assembly
from ._value import Value
from .exactlinalg import FinAbGroup, IntMatrix

_SEED = 987123


class CheckResult(Value):
    __slots__ = ("name", "passed", "detail")


def _eq(actual, expected, what: str) -> None:
    if actual != expected:
        raise AssertionError(f"{what}: got {actual}, expected {expected}")


def _groups_eq(actual, expected, what: str) -> None:
    _eq([str(g) for g in actual], list(expected), what)


# -- frozen expected values -------------------------------------------------

SL3_BREDON = ("Z^8", "0", "0", "0")
SL3_KO = ("Z^8", "Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2",
          "Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2", "0", "Z^8", "0", "0", "0")
GL3_KO = ("Z^16",
          "Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + "
          "Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2",
          "Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + "
          "Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2",
          "0", "Z^16", "0", "0", "0")

#: Gamma_0(p) Bredon homology (H0 rank, H1 rank) for representative primes.
HECKE_TABLE = {2: (2, 1), 3: (3, 1), 13: (7, 1), 17: (3, 3), 19: (5, 3), 23: (1, 5)}

#: (identity, order-2, order-3, total) class counts for PSL_2(Z[1/p]).
CLASS_COUNT_TABLE = {
    2: (1, 1, 4, 6),
    3: (1, 2, 2, 5),
    13: (1, 1, 2, 4),
    17: (1, 1, 4, 6),
    19: (1, 2, 2, 5),
    23: (1, 2, 4, 7),
}

#: PSL_2(Z[1/p]) Bredon ranks (H0, H1, H2) for the published primes.
PSL_BREDON_TABLE = {
    2: (6, 0, 1),
    3: (5, 0, 1),
    13: (4, 3, 1),
    17: (6, 1, 3),
    19: (5, 2, 3),
    23: (7, 0, 5),
    29: (6, 1, 5),
    37: (4, 3, 5),
    47: (7, 0, 9),
    59: (7, 0, 11),
}

#: PSL_2(Z[1/p]) K-homology ranks (K0, K1) for the published primes.
PSL_K_TABLE = {
    2: (7, 0),
    3: (6, 0),
    13: (5, 3),
    17: (9, 1),
    19: (8, 2),
    23: (12, 0),
    29: (11, 1),
    37: (9, 3),
    47: (16, 0),
    59: (18, 0),
}

#: Cocompact signatures, whose closed form `hecke` checks beside the Gamma_0(p).
COCOMPACT_SIGNATURES = ("[0,0;2,3,7]", "[2,0;2,2]", "[1,0;]")

LIFT_PRIMES = (2, 3, 11, 13)
CSTAR_PRIMES = (11, 23, 47, 59)

#: Groups that must (resp. must not) have coinciding character tables.
COINCIDING = ("1", "Z2", "Z2xZ2", "D3", "D4", "D6", "S4")
NOT_COINCIDING = ("Z3", "Z4", "Z6", "Zm(5)", "Zm(7)", "Zm(12)")


def expected_cstar_ko(b: int) -> ko_assembly.GradedGroup:
    """The closed-form KO groups for p = 11 mod 12 with b = (p+7)/6, known
    only up to extension in degrees 1, 3 and 4."""
    return ko_assembly.GradedGroup([
        FinAbGroup.free(5),
        FinAbGroup(0, ((2, 3),)),
        FinAbGroup(2 + b, ((2, 3),)),
        FinAbGroup(0, ((2, b),)),
        FinAbGroup(5, ((2, b),)),
        FinAbGroup.zero(),
        FinAbGroup.free(2 + b),
        FinAbGroup.zero(),
    ], {1, 3, 4})


def _primes_in(limit_lo: int, limit_hi: int) -> list[int]:
    return [p for p in range(max(2, limit_lo), limit_hi + 1) if fuchsian.is_prime(p)]


# -- individual checks -------------------------------------------------------


def check_sl3_bredon() -> str:
    h = bredon.bredon_homology(bredon.sl3_datum())
    _groups_eq(h, SL3_BREDON, "SL3 Bredon homology")
    return "chain ranks 26/28/11/1 give " + ", ".join(SL3_BREDON)


def check_sl3_ko() -> str:
    datum = bredon.sl3_datum()
    gg = ko_assembly.ko_from_bredon(bredon.bredon_homology(datum), datum.stabilisers())
    _groups_eq(gg.groups, SL3_KO, "SL3 KO")
    return "eight periodic KO groups match"


def check_gl3_ko() -> str:
    datum = bredon.sl3_datum()
    doubled, products = ko_assembly.kunneth_times_z2(
        bredon.bredon_homology(datum), datum.stabilisers()
    )
    gg = ko_assembly.ko_from_bredon(doubled, products)
    _groups_eq(gg.groups, GL3_KO, "GL3 KO")
    return "rank-doubled KO groups match"


def check_table_coincidence() -> str:
    for names, coincide in ((COINCIDING, True), (NOT_COINCIDING, False)):
        for name in names:
            gid = groups.parse_name(name)
            for probe in (gid, groups.GroupId.times_z2(gid)):
                if groups.all_tables_coincide(probe) != coincide:
                    should = "should" if coincide else "should not"
                    raise AssertionError(f"{probe.name()} {should} have coinciding tables")
    return f"{len(COINCIDING)} coinciding + {len(NOT_COINCIDING)} not, with Z/2 products"


def check_involution_counts() -> str:
    probes = [groups.parse_name(n) for n in COINCIDING]
    probes += [groups.GroupId.times_z2(g) for g in probes[:]]
    for gid in probes:
        g = groups.build_group(gid)
        lhs = sum(groups.fs_indicator(g, row) * row[0] for row in groups.character_table(gid))
        involutions = sum(1 for x in range(g.order) if g.mult[x][x] == 0)
        _eq(lhs, involutions, f"involution count for {gid.name()}")
    return f"indicator-weighted degrees count involutions in {len(probes)} groups"


def check_hecke_closed_vs_chain(primes: list[int]) -> str:
    named = [(f"Gamma_0({p})", fuchsian.hecke_signature(p)) for p in primes]
    named += [(text, fuchsian.parse_signature(text)) for text in COCOMPACT_SIGNATURES]
    for name, sig in named:
        closed = fuchsian.bredon_closed_form(sig)
        chain = bredon.bredon_homology(bredon.fuchsian_datum(sig))
        _groups_eq(chain, [str(g) for g in closed], f"{name} chain vs closed form")
    sig = fuchsian.MODULAR_SIGNATURE
    chain = bredon.bredon_homology(bredon.fuchsian_datum(sig))
    _groups_eq(chain, ("Z^4", "0"), "modular group Bredon homology")
    for p, (h0, h1) in HECKE_TABLE.items():
        _groups_eq(
            fuchsian.bredon_closed_form(fuchsian.hecke_signature(p)),
            [str(FinAbGroup.free(h0)), str(FinAbGroup.free(h1))],
            f"Gamma_0({p}) table row",
        )
    return f"{len(primes)} primes, chain = closed form; table rows match"


def check_class_counts() -> str:
    for p, (one, two, three, total) in CLASS_COUNT_TABLE.items():
        c = arithmetic_k.class_count_psl(p)
        _eq((c.identity, c.order2, c.order3, c.total), (one, two, three, total),
            f"class count for p={p}")
    return f"{len(CLASS_COUNT_TABLE)} published class-count rows match"


def check_psl_tables() -> str:
    for p, ranks in PSL_BREDON_TABLE.items():
        h = arithmetic_k.psl_zp_bredon(p)
        _eq(tuple(g.free_rank for g in h), ranks, f"PSL Bredon ranks for p={p}")
        if any(g.torsion for g in h):
            raise AssertionError(f"torsion in PSL_2(Z[1/{p}]) Bredon homology")
    for p, (k0, k1) in PSL_K_TABLE.items():
        actual = arithmetic_k.psl_zp_k(p).groups
        _eq(tuple(g.free_rank for g in actual), (k0, k1), f"PSL K for p={p}")
    return f"{len(PSL_BREDON_TABLE)} Bredon rows + {len(PSL_K_TABLE)} K rows match"


def check_sl_doubling() -> str:
    for p, (k0, k1) in PSL_K_TABLE.items():
        s0, s1 = arithmetic_k.sl_zp_k(p).groups
        _eq((s0.free_rank, s1.free_rank), (2 * k0, 2 * k1), f"SL doubling for p={p}")
        if s0.torsion or s1.torsion:
            raise AssertionError(f"torsion in SL_2(Z[1/{p}]) K-homology")
    for p in LIFT_PRIMES:
        sig = fuchsian.hecke_signature(p)
        lifted = bredon.bredon_homology(bredon.lifted_fuchsian_datum(sig))
        base = fuchsian.bredon_closed_form(sig)
        _groups_eq(
            lifted,
            [str(FinAbGroup.free(2 * g.free_rank)) for g in base],
            f"lifted chain doubling for p={p}",
        )
    return f"K doubled for {len(PSL_K_TABLE)} primes; chain lifts doubled for {LIFT_PRIMES}"


def check_cstar() -> str:
    for p in CSTAR_PRIMES:
        b = (p + 7) // 6  # 2g + 1 two-spheres, with genus g = (p + 1) / 12 of Gamma_0(p)
        k = arithmetic_k.cstar_k_p11(p)
        k0, k1 = k.groups
        _eq((k0.free_rank, k0.torsion, str(k1)), (7 + b, (), "0"), f"C* K for p={p}")
        _eq(k, arithmetic_k.psl_zp_k(p), f"C* K agrees with the equivariant assembly for p={p}")
        _eq(arithmetic_k.cstar_ko_p11(p), expected_cstar_ko(b), f"C* KO for p={p}")
    return f"K and KO summand assembly matches for p in {CSTAR_PRIMES}"


def _random_matrices(seed: int, count: int, max_dim: int) -> list[IntMatrix]:
    # dimensions uniform in 1..max_dim and entries uniform in -20..20, each
    # drawn by rejection sampling from one endless seeded stream of bytes
    rng = random.Random(seed)
    stream = chain.from_iterable(iter(lambda: rng.randbytes(4096), b""))
    dims = (byte % max_dim + 1 for byte in stream if byte < 256 - 256 % max_dim)
    entries = (byte % 41 - 20 for byte in stream if byte < 256 - 256 % 41)
    shapes = [(next(dims), next(dims)) for _ in range(count)]
    return [IntMatrix(rows, cols, tuple(islice(entries, rows * cols))) for rows, cols in shapes]


def _determinant(a: list[list[int]]) -> int:
    """The determinant of the square matrix of rows `a`, by fraction-free
    (Bareiss) elimination, which reduces `a` in place.

    >>> _determinant([[0, 2], [3, 4]])
    -6
    """
    sign, prev = 1, 1
    for k in range(len(a)):
        if not a[k][k]:
            at = next((i for i in range(k + 1, len(a)) if a[i][k]), None)
            if at is None:
                return 0
            a[k], a[at], sign = a[at], a[k], -sign
        pivot_row, pivot = a[k], a[k][k]
        for row in a[k + 1:]:
            x = row[k]
            for j in range(k + 1, len(row)):
                # Bareiss update: division by the previous pivot is exact
                row[j] = (row[j] * pivot - x * pivot_row[j]) // prev
        prev = pivot
    return sign * prev


def _minor_gcd_factors(m: IntMatrix) -> list[int]:
    """Invariant factors via gcds of k x k minors -- an independent oracle."""
    rows = m.row_list()
    out = []
    g_prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        gk = 0
        for rset, cset in product(combinations(range(m.rows), k), combinations(range(m.cols), k)):
            gk = gcd(gk, _determinant([[rows[i][j] for j in cset] for i in rset]))
            if gk == 1:
                break
        if gk == 0:
            break
        out.append(gk // g_prev)
        g_prev = gk
    return out


#: The snf check runs in this many self-contained parts, which together
#: make its 1000 round trips and 120 minor-gcd oracle matches.
_SNF_PARTS = 20


def _check_smith_form(m: IntMatrix) -> tuple[int, ...]:
    """The invariant factors of `m` with transforms, once they are checked:
    positive, each dividing the next, and left @ m @ right is their diagonal
    padded with zeros for transforms of determinant +-1.  Raises otherwise."""
    # through the module, so a replaced kernel is the one checked
    d, left, right = exactlinalg._smith_normal_form(m)
    if any(x <= 0 for x in d) or any(y % x for x, y in zip(d, d[1:])):
        raise AssertionError(f"SNF factors {d} are not a positive divisibility chain")
    diagonal = [0] * (m.rows * m.cols)
    diagonal[:len(d) * (m.cols + 1):m.cols + 1] = d  # row-major, step cols + 1
    if (left @ m @ right).entries != tuple(diagonal):
        raise AssertionError(f"SNF round-trip failed for {m.rows}x{m.cols} matrix")
    if abs(_determinant(left.row_list())) != 1 or abs(_determinant(right.row_list())) != 1:
        raise AssertionError("SNF transforms are not unimodular")
    return d


def _run_snf_part(index: int) -> None:
    """Part `index` of the snf check: 50 round trips and 6 oracle matches on
    matrices it draws from its own seeds; raises on the first failure."""
    seed = _SEED + 2 * index
    for m in _random_matrices(seed, 50, 8):
        _check_smith_form(m)
    for m in _random_matrices(seed + 1, 6, 5):
        if list(exactlinalg._smith_factors(m)) != _minor_gcd_factors(m):
            raise AssertionError("SNF disagrees with the minor-gcd oracle")


def check_gauss_bonnet(primes: list[int]) -> str:
    # By Gauss-Bonnet (Harder), chi_orb(Gamma_0(p)) is the index p + 1 times
    # chi_orb(PSL_2(Z)) = -1/6, and chi_orb(SL_3(Z)) = zeta(-1) zeta(-2) = 0.
    # Each chi_orb is a pair (L * chi, L), so two are compared cross-multiplied.
    for p in primes:
        chi, scale = fuchsian.hecke_signature(p).orbifold_euler()
        _eq(6 * chi, -(p + 1) * scale, f"6 chi_orb(Gamma_0({p})) scaled by {scale}")
    data = [(bredon.sl3_datum(), (0, 1))]
    for sig_text in COCOMPACT_SIGNATURES + ("[1,2;2,3]", "[0,4;]"):
        sig = fuchsian.parse_signature(sig_text)
        data.append((bredon.fuchsian_datum(sig), sig.orbifold_euler()))
    for datum, (chi, scale) in data:
        # sum_n (-1)^n sum_sigma 1/|G_sigma| over the n-cells sigma, scaled by
        # the lcm `common` of the stabiliser orders
        orders = [(n, g.order()) for n, layer in enumerate(datum.cells) for _, g in layer]
        common = lcm(*(order for _, order in orders))
        cells_chi = sum((-1) ** n * (common // order) for n, order in orders)
        _eq(cells_chi * scale, chi * common, f"cell sum of {datum.name} scaled by {scale * common}")
    return f"6 chi_orb = -(p+1) for {len(primes)} primes; cell sums match on {len(data)} data"


def _run_check(name: str | int, fn) -> tuple[str | int, bool, str]:
    try:
        return name, True, fn()
    except (MemoryError, OverflowError):  # too large to build, not a wrong value
        raise
    except Exception as exc:  # noqa: BLE001 -- a failing check must not stop the run
        return name, False, f"{type(exc).__name__}: {exc}"


class _SnfLanes:
    """The snf check's parts, shared between this process and one forked child.

    One token per part goes into a pipe whose write end is closed before
    the fork, so a 1-byte read claims one part atomically and an empty pipe
    reads as end of file.  The child claims parts from the start and sends
    its `(index, passed, detail)` results back through a second pipe; this
    process claims the rest in `drain`, once its own checks are done.
    Without `os.fork`, or when the fork fails, this process runs every part
    in `drain`.
    """

    def __init__(self):
        self.done: list[tuple[int, bool, str | None]] = []  # the parts this process ran
        self.tokens, write_fd = os.pipe()
        os.write(write_fd, bytes(range(_SNF_PARTS)))
        os.close(write_fd)
        self.child = None
        self.results, write_fd = os.pipe()
        try:
            self.child = os.fork()
        except (AttributeError, OSError):  # no fork, or out of processes or memory
            os.close(self.results)
            os.close(write_fd)
            return
        if self.child == 0:
            # never return into the caller's stack or flush its inherited stdio
            status = 1
            try:
                os.close(self.results)
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(marshal.dumps(self._claim()))
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)

    def _claim(self) -> list[tuple[int, bool, str | None]]:
        done = []
        while token := os.read(self.tokens, 1):
            index = token[0]
            done.append(_run_check(index, lambda: _run_snf_part(index)))
        return done

    def drain(self) -> None:
        self.done += self._claim()

    def result(self) -> tuple[str, bool, str]:
        """Wait for the child; `snf` passes only if the child returned its
        results and every part ran and passed.  A failure reports the
        failing part of lowest index, whichever process ran it."""
        os.close(self.tokens)
        done = self.done
        if self.child is not None:
            with os.fdopen(self.results, "rb") as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(self.child, 0)[1])
            try:
                if code == 0:
                    done = done + marshal.loads(data)
            except (EOFError, ValueError, TypeError):
                code = 1
            if code != 0:
                how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
                return "snf", False, f"check process {how} without a result"
        done.sort()
        for index, passed, detail in done:
            if not passed:
                return "snf", False, detail
        ran = [index for index, _, _ in done]
        if ran != list(range(_SNF_PARTS)):
            return "snf", False, f"parts {ran} ran, not each of 0..{_SNF_PARTS - 1} once"
        return "snf", True, "1000 random round-trips, 120 minor-gcd oracle matches"


def verify_all(prime_lo: int, prime_hi: int) -> list[CheckResult]:
    """Run every regression check, one result each; a MemoryError or
    OverflowError (too large to build) propagates once the snf child is reaped."""
    swept = cache(lambda: _primes_in(prime_lo, prime_hi))  # for hecke and gauss-bonnet
    checks = [
        ("sl3-bredon", check_sl3_bredon),
        ("sl3-ko", check_sl3_ko),
        ("gl3-ko", check_gl3_ko),
        ("character-tables", check_table_coincidence),
        ("involution-counts", check_involution_counts),
        ("hecke", lambda: check_hecke_closed_vs_chain(swept())),
        ("class-counts", check_class_counts),
        ("psl2zp", check_psl_tables),
        ("sl2zp-doubling", check_sl_doubling),
        ("cstar", check_cstar),
        ("snf", None),  # run by `_SnfLanes` below
        ("gauss-bonnet", lambda: check_gauss_bonnet(swept())),
    ]
    # snf costs the same at every prime range, and near B = 1900 about as
    # much as all the other checks together.  Its parts are shared: a forked
    # child starts on them at once, and this process takes what is left
    # after the other eleven checks, so neither CPU waits on the other.
    snf = _SnfLanes()
    results = {}
    try:
        for name, fn in checks:
            if name != "snf":
                results[name] = CheckResult(*_run_check(name, fn))
        snf.drain()
    finally:
        results["snf"] = CheckResult(*snf.result())
    return [results[name] for name, _ in checks]
