"""K-theory of the arithmetic groups PSL_2(Z[1/p]) and SL_2(Z[1/p])."""

import pytest

from equiko import fuchsian
from equiko.arithmetic_k import (
    ClassCount,
    class_count_psl,
    cstar_k_p11,
    cstar_ko_p11,
    psl_zp_bredon,
    psl_zp_k,
    sl_zp_k,
)
from equiko.exactlinalg import FinAbGroup, direct_sum
from equiko.fuchsian import hecke_bredon, hecke_signature, is_prime
from equiko.ko_assembly import KO_POINT


# -- conjugacy class counts ---------------------------------------------------------


def test_class_count_table():
    expected = {
        2: (1, 1, 4, 6),
        3: (1, 2, 2, 5),
        13: (1, 1, 2, 4),
        17: (1, 1, 4, 6),
        19: (1, 2, 2, 5),
        23: (1, 2, 4, 7),
    }
    for p, (identity, order2, order3, total) in expected.items():
        c = class_count_psl(p)
        assert (c.identity, c.order2, c.order3, c.total) == (
            identity, order2, order3, total
        )


def test_class_count_rejects_composites():
    with pytest.raises(ValueError):
        class_count_psl(12)


# -- Bredon homology and K-theory -----------------------------------------------------


PSL_BREDON = {
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

PSL_K = {
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


def test_psl_bredon_table():
    for p, (h0, h1, h2) in PSL_BREDON.items():
        h = psl_zp_bredon(p)
        assert [g.free_rank for g in h] == [h0, h1, h2]
        assert all(not g.torsion for g in h)


def test_psl_bredon_builds_one_signature(monkeypatch):
    # Miller-Rabin runs once per Gamma_0(p) signature built
    is_prime = fuchsian.is_prime
    tested = []
    monkeypatch.setattr(fuchsian, "is_prime", lambda n: tested.append(n) or is_prime(n))
    assert [str(g) for g in psl_zp_bredon(13)] == ["Z^4", "Z^3", "Z"]
    assert tested == [13]


def test_psl_k_table():
    for p, (k0, k1) in PSL_K.items():
        a, b = psl_zp_k(p)
        assert (a.free_rank, b.free_rank) == (k0, k1)
        assert not a.torsion and not b.torsion


def test_sl_doubles_psl():
    for p in PSL_K:
        a, b = psl_zp_k(p)
        sa, sb = sl_zp_k(p)
        assert (sa.free_rank, sb.free_rank) == (2 * a.free_rank, 2 * b.free_rank)


def test_mayer_vietoris_rank_sum():
    # the four-term sequence forces h1 - h0(edge) + 8 - h0 = 0
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]:
        h = psl_zp_bredon(p)
        h0_edge, _ = hecke_bredon(p)
        assert h[1].free_rank - h0_edge.free_rank + 8 - h[0].free_rank == 0


def test_h2_rank_matches_edge_h1():
    # H2 of the double mapping cylinder is H1 of the edge group
    for p in PSL_BREDON:
        h = psl_zp_bredon(p)
        _, h1_edge = hecke_bredon(p)
        assert h[2] == h1_edge


def test_closed_form_invariants_below_2000():
    # torsion-free inputs, paired order-3 classes and an H1 rank of 0..3, for
    # every (e2, e3) class of Gamma_0(p)
    classes = set()
    for p in [p for p in range(2, 2000) if is_prime(p)]:
        periods = hecke_signature(p).periods
        e2, e3 = periods.count(2), periods.count(3)
        classes.add((e2, e3))
        counts = class_count_psl(p)
        assert not any(g.torsion for g in hecke_bredon(p))
        assert counts.order3 in (2, 4)
        rank = e2 + 2 * e3 + counts.order2 + counts.order3 - 6
        assert psl_zp_bredon(p)[1].free_rank == rank and rank in (0, 1, 2, 3)
    assert classes == {(1, 0), (0, 1), (0, 0), (0, 2), (2, 0), (2, 2)}


# -- the reduced C*-algebra in the periodic case ---------------------------------------


def test_cstar_k_values():
    assert str(cstar_k_p11(11)[0]) == "Z^10"
    assert str(cstar_k_p11(11)[1]) == "0"
    assert str(cstar_k_p11(23)[0]) == "Z^12"
    assert str(cstar_k_p11(47)[0]) == "Z^16"
    assert str(cstar_k_p11(59)[0]) == "Z^18"


def test_cstar_k_agrees_with_chain_computation():
    for p in [11, 23, 47, 59]:
        k0, k1 = psl_zp_k(p)
        c0, c1 = cstar_k_p11(p)
        assert (c0, c1) == (k0, k1)


def test_cstar_ko_p11():
    gg = cstar_ko_p11(11)
    assert [str(gg.entry(n)) for n in range(8)] == [
        "Z^5",
        "Z/2 + Z/2 + Z/2",
        "Z^5 + Z/2 + Z/2 + Z/2",
        "Z/2 + Z/2 + Z/2",
        "Z^5 + Z/2 + Z/2 + Z/2",
        "0",
        "Z^5",
        "0",
    ]
    assert gg.extension_ambiguous == frozenset({1, 3, 4})
    assert gg.is_ambiguous(1) and gg.is_ambiguous(3) and gg.is_ambiguous(4)
    assert not gg.is_ambiguous(0) and not gg.is_ambiguous(2)


def test_cstar_ko_scales_with_loop_rank():
    # for p = 23 the loop rank is 5: free parts 2 + 5 = Z^7, torsion Z/2^5
    gg = cstar_ko_p11(23)
    assert str(gg.entry(6)) == "Z^7"
    assert str(gg.entry(3)) == "Z/2 + Z/2 + Z/2 + Z/2 + Z/2"


def test_p11_gamma0_has_no_elliptic_points():
    # the facts cstar's fixed subgroup counts rest on: for p = 11 mod 12,
    # Gamma_0(p) has no periods, leaving two involution and four order-3 classes
    primes = [p for p in range(11, 20000, 12) if is_prime(p)]
    assert len(primes) > 500
    for p in primes:
        assert hecke_signature(p).periods == ()
        assert class_count_psl(p) == ClassCount(1, 2, 4)


def test_cstar_ko_equals_the_sum_of_its_summands():
    # reference: one summand per class and per sphere, summed by direct_sum;
    # one Z/2 per involution class, one Z/3 per inverse pair of order-3 classes
    for p in [p for p in range(11, 400, 12) if is_prime(p)]:
        counts, b = class_count_psl(p), (p + 7) // 6
        gg = cstar_ko_p11(p)
        for n in range(8):
            parts = ([KO_POINT.entry(n)] * (counts.order2 + 1)
                     + [FinAbGroup.free(1 - n % 2)] * (counts.order3 // 2)
                     + [KO_POINT.entry(n - 2)] * b)
            assert gg.entry(n) == direct_sum(*parts)


def test_cstar_rejects_wrong_residue():
    for p in [2, 3, 13, 17, 19, 29, 37]:
        with pytest.raises(ValueError):
            cstar_k_p11(p)
        with pytest.raises(ValueError):
            cstar_ko_p11(p)
    with pytest.raises(ValueError, match="^35 is not prime$"):
        cstar_k_p11(35)  # 35 = 11 mod 12 but composite
