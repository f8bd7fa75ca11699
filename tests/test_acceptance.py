"""Acceptance gate: the ten headline guarantees, one pass/fail line each.

Every expected value here is frozen independently of the library's own
regression tables, so a drift in either place turns a line red.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they print.
"""

import json
import random
from contextlib import contextmanager

import pytest

from equiko import cli, verify
from equiko.arithmetic_k import (
    class_count_psl,
    cstar_k_p11,
    cstar_ko_p11,
    psl_zp_bredon,
    psl_zp_k,
    sl_zp_k,
)
from equiko.bredon import (
    bredon_homology,
    expand,
    fuchsian_datum,
    lifted_fuchsian_datum,
    sl3_datum,
)
from equiko.exactlinalg import FinAbGroup, IntMatrix, all_homology
from equiko.fuchsian import (
    MODULAR_SIGNATURE,
    Signature,
    bredon_closed_form,
    hecke_signature,
    is_prime,
)
from equiko.groups import (
    GroupId, all_tables_coincide, build_group, character_table, fs_indicator, parse_name,
)
from equiko.ko_assembly import collapse_complex, ko_from_bredon, kunneth_times_z2


@contextmanager
def criterion(n, label):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {n}: {label}")
        raise
    print(f"PASS  criterion {n}: {label}")


def _cli_lines(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out.splitlines()


Z2_8 = " + ".join(["Z/2"] * 8)
Z2_16 = " + ".join(["Z/2"] * 16)


def test_criterion_01_sl3_ko(capsys):
    with criterion(1, "eight KO groups for SL_3(Z), homology from SNF"):
        h = bredon_homology(sl3_datum())
        assert [str(g) for g in h] == ["Z^8", "0", "0", "0"]
        c = expand(sl3_datum())
        assert c.ranks == (26, 28, 11, 1)
        assert not any(b.is_zero() for b in c.boundaries)  # genuinely computed
        lines = _cli_lines(capsys, "sl3", "--ko")
        assert lines == [
            "KO0 = Z^8", f"KO1 = {Z2_8}", f"KO2 = {Z2_8}", "KO3 = 0",
            "KO4 = Z^8", "KO5 = 0", "KO6 = 0", "KO7 = 0",
            "remaining groups by Bott periodicity",
        ]


def test_criterion_02_gl3_ko(capsys):
    with criterion(2, "KO groups for GL_3(Z) by rank doubling"):
        doubled, _ = kunneth_times_z2(bredon_homology(sl3_datum()), sl3_datum().stabilisers())
        assert [str(g) for g in doubled] == ["Z^16", "0", "0", "0"]
        lines = _cli_lines(capsys, "gl3", "--ko")
        assert lines == [
            "KO0 = Z^16", f"KO1 = {Z2_16}", f"KO2 = {Z2_16}", "KO3 = 0",
            "KO4 = Z^16", "KO5 = 0", "KO6 = 0", "KO7 = 0",
            "remaining groups by Bott periodicity",
        ]


def test_criterion_03_table_coincidence():
    with criterion(3, "character tables coincide for the exact expected list"):
        coinciding = [
            GroupId.trivial(), GroupId.cyclic(2), parse_name("Z2xZ2"),
            GroupId.dihedral(3), GroupId.dihedral(4), parse_name("D6"),
            GroupId.sym4(),
        ]
        not_coinciding = [
            GroupId.cyclic(3), GroupId.cyclic(4), GroupId.cyclic(6),
            GroupId.cyclic(5), GroupId.cyclic(12),
        ]
        for gid in coinciding:
            assert all_tables_coincide(gid), gid.name()
            assert all_tables_coincide(GroupId.times_z2(gid)), gid.name()
        for gid in not_coinciding:
            assert not all_tables_coincide(gid), gid.name()
            assert not all_tables_coincide(GroupId.times_z2(gid)), gid.name()


def test_criterion_04_hecke_closed_form_vs_chain():
    with criterion(4, "closed form = chain computation for Gamma_0(p), p <= 200"):
        table3 = {
            2: ("Z^2", "Z"), 3: ("Z^3", "Z"), 13: ("Z^7", "Z"),
            17: ("Z^3", "Z^3"), 19: ("Z^5", "Z^3"), 23: ("Z", "Z^5"),
        }
        for p in [n for n in range(2, 201) if is_prime(n)]:
            sig = hecke_signature(p)
            closed = bredon_closed_form(sig)
            chain = bredon_homology(fuchsian_datum(sig))
            assert closed == chain, f"p = {p}"
            if p in table3:
                assert (str(closed[0]), str(closed[1])) == table3[p], f"p = {p}"
        modular = bredon_closed_form(MODULAR_SIGNATURE)
        assert [str(g) for g in modular] == ["Z^4", "0"]
        assert bredon_homology(fuchsian_datum(MODULAR_SIGNATURE)) == modular


def test_criterion_05_class_counts():
    with criterion(5, "conjugacy class counts for PSL_2(Z[1/p])"):
        table4 = {
            2: (1, 1, 4, 6), 3: (1, 2, 2, 5), 13: (1, 1, 2, 4),
            17: (1, 1, 4, 6), 19: (1, 2, 2, 5), 23: (1, 2, 4, 7),
        }
        for p, row in table4.items():
            c = class_count_psl(p)
            assert (c.identity, c.order2, c.order3, c.total) == row, f"p = {p}"


def test_criterion_06_psl_tables():
    with criterion(6, "Bredon homology and K-theory of PSL_2(Z[1/p])"):
        table5 = {
            2: (6, 0, 1), 3: (5, 0, 1), 13: (4, 3, 1), 17: (6, 1, 3),
            19: (5, 2, 3), 23: (7, 0, 5), 29: (6, 1, 5), 37: (4, 3, 5),
            47: (7, 0, 9), 59: (7, 0, 11),
        }
        table1 = {
            2: (7, 0), 3: (6, 0), 13: (5, 3), 17: (9, 1), 19: (8, 2),
            23: (12, 0), 29: (11, 1), 37: (9, 3), 47: (16, 0), 59: (18, 0),
        }
        for p, row in table5.items():
            h = psl_zp_bredon(p)
            assert tuple(g.free_rank for g in h) == row and not any(
                g.torsion for g in h
            ), f"p = {p}"
        for p, (k0, k1) in table1.items():
            a, b = psl_zp_k(p).groups
            assert (a.free_rank, b.free_rank) == (k0, k1), f"p = {p}"
            assert not a.torsion and not b.torsion


def test_criterion_07_sl_doubling():
    with criterion(7, "SL_2(Z[1/p]) doubles PSL_2(Z[1/p]), also at chain level"):
        for p in [2, 3, 13, 17, 19, 23, 29, 37, 47, 59]:
            a, b = psl_zp_k(p).groups
            sa, sb = sl_zp_k(p).groups
            assert (sa.free_rank, sb.free_rank) == (2 * a.free_rank, 2 * b.free_rank)
        for p in [2, 3, 11, 13]:
            sig = hecke_signature(p)
            base = bredon_homology(fuchsian_datum(sig))
            lifted = bredon_homology(lifted_fuchsian_datum(sig))
            assert [g.free_rank for g in lifted] == [2 * g.free_rank for g in base]
            assert not any(g.torsion for g in lifted)


def test_criterion_08_cstar(capsys):
    with criterion(8, "K and KO of the reduced C*-algebra for p = 11 mod 12"):
        for p, rank in [(11, 10), (23, 12), (47, 16), (59, 18)]:
            k0, k1 = cstar_k_p11(p).groups
            assert (str(k0), str(k1)) == (f"Z^{rank}", "0"), f"p = {p}"
        gg = cstar_ko_p11(11)
        z2 = lambda k: " + ".join(["Z/2"] * k)
        assert [str(gg.entry(n)) for n in range(8)] == [
            "Z^5", z2(3), "Z^5 + " + z2(3), z2(3),
            "Z^5 + " + z2(3), "0", "Z^5", "0",
        ]
        assert gg.extension_ambiguous == frozenset({1, 3, 4})
        doc = json.loads(
            "\n".join(_cli_lines(capsys, "cstar", "-p", "11", "--ko", "--format", "json"))
        )
        assert doc["ambiguous_degrees"] == [1, 3, 4]


def test_criterion_09_property_suites():
    with criterion(9, "SNF, indicator and homology-by-SNF properties"):
        rng = random.Random(20260819)
        for _ in range(1000):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            m = IntMatrix.from_rows(
                [[rng.randint(-25, 25) for _ in range(c)] for _ in range(r)]
            )
            # the snf check of `verify`: a positive divisibility chain, and
            # unimodular transforms onto its diagonal
            verify._check_smith_form(m)
        for gid in [
            GroupId.trivial(), GroupId.cyclic(2), parse_name("Z2xZ2"),
            GroupId.dihedral(3), GroupId.dihedral(4), parse_name("D6"),
            GroupId.sym4(), GroupId.times_z2(GroupId.sym4()),
        ]:
            g = build_group(gid)
            total = sum(
                fs_indicator(g, row) * row[0] for row in character_table(gid)
            )
            involutions = sum(1 for x in range(g.order) if g.mult[x][x] == 0)
            assert total == involutions, gid.name()
        # homology by SNF of each complex against a value that no SNF gives:
        # the published SL_3(Z) row, the signature's closed form, and its
        # rank doubling for the central Z/2 lift
        modular = bredon_closed_form(MODULAR_SIGNATURE)
        expected = [
            (expand(sl3_datum()), ["Z^8", "0", "0", "0"]),
            (expand(lifted_fuchsian_datum(MODULAR_SIGNATURE)),
             [str(FinAbGroup.free(2 * g.free_rank)) for g in modular]),
        ]
        for sig in [Signature(1, 0, (2, 4)), Signature(0, 0, (2, 3, 7))]:
            closed = [str(g) for g in bredon_closed_form(sig)]
            expected.append((expand(fuchsian_datum(sig)), closed))
        for sig in [MODULAR_SIGNATURE] + [hecke_signature(p) for p in [2, 3, 13, 17, 19, 23]]:
            closed = [str(g) for g in bredon_closed_form(sig)]
            expected.append((expand(fuchsian_datum(sig)), closed))
        for c, groups in expected:
            assert [str(g) for g in all_homology(c)] == groups, c.ranks


def test_criterion_10_negative_controls():
    with criterion(10, "invalid inputs are rejected, not absorbed"):
        Z = FinAbGroup.free(1)
        with pytest.raises(ValueError):
            collapse_complex([Z, Z, Z, Z])  # H3 nonzero
        with pytest.raises(ValueError, match="column"):
            ko_from_bredon([Z, Z], [])  # two columns
        with pytest.raises(ValueError):
            kunneth_times_z2([FinAbGroup.of(0, [2])], [])  # torsion
        for p in [13, 17, 19, 29]:
            with pytest.raises(ValueError):
                cstar_k_p11(p)
            with pytest.raises(ValueError):
                cstar_ko_p11(p)
