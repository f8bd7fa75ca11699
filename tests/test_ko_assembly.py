"""Assembling K- and KO-groups from Bredon homology."""

import random

import pytest

from equiko.bredon import bredon_homology, sl3_datum
from equiko.exactlinalg import FinAbGroup, tensor_z2, tor_z2
from equiko.groups import GroupId, parse_name
from equiko.ko_assembly import (
    KO_POINT,
    GradedGroup,
    collapse_ambiguous_degrees,
    collapse_complex,
    ko_from_bredon,
    kunneth_times_z2,
)

Z = FinAbGroup.free(1)
Z2 = FinAbGroup.of(0, [2])
ZERO = FinAbGroup.zero()


# -- graded groups -----------------------------------------------------------------


def test_ko_point_values():
    assert [str(KO_POINT.entry(n)) for n in range(8)] == [
        "Z", "Z/2", "Z/2", "0", "Z", "0", "0", "0",
    ]
    assert KO_POINT.entry(8) == Z  # periodicity
    assert KO_POINT.entry(-4) == Z


def test_graded_group_validation():
    with pytest.raises(ValueError):
        GradedGroup((Z,) * 2)
    with pytest.raises(ValueError):
        GradedGroup((Z,) * 3)
    with pytest.raises(ValueError):
        GradedGroup((Z,) * 8, frozenset({8}))


# -- collapse ----------------------------------------------------------------------


def test_collapse_low_dimensional_complex():
    k0, k1 = collapse_complex([FinAbGroup.free(10), ZERO, Z])
    assert (str(k0), str(k1)) == ("Z^11", "0")
    k0, k1 = collapse_complex([FinAbGroup.free(4)])
    assert (str(k0), str(k1)) == ("Z^4", "0")
    k0, k1 = collapse_complex([Z, FinAbGroup.free(2), Z])
    assert (str(k0), str(k1)) == ("Z^2", "Z^2")


def test_collapse_keeps_torsion():
    k0, k1 = collapse_complex([FinAbGroup.of(1, [2]), FinAbGroup.of(0, [3])])
    assert (str(k0), str(k1)) == ("Z + Z/2", "Z/3")


def test_collapse_rejects_high_homology():
    with pytest.raises(ValueError):
        collapse_complex([Z, ZERO, ZERO, Z])


@pytest.mark.parametrize("h0, h2, ambiguous", [
    (Z, FinAbGroup.free(3), False),  # H2 free: the extension splits
    (Z, Z2, True),  # Ext(Z/2, Z) = Z/2
    (FinAbGroup.of(0, [4]), Z2, True),  # Ext(Z/2, Z/4) = Z/2
    (FinAbGroup.of(0, [3]), Z2, False),  # coprime orders: K0 = Z/6
    (ZERO, FinAbGroup.of(1, [6]), False),  # K0 = H2
], ids=["free-h2", "z-by-z2", "z4-by-z2", "z3-by-z2", "zero-h0"])
def test_k0_is_flagged_when_the_extension_may_not_split(h0, h2, ambiguous):
    expected = frozenset({0}) if ambiguous else frozenset()
    assert collapse_ambiguous_degrees([h0, Z, h2, ZERO]) == expected


def test_short_homology_is_never_ambiguous():
    assert collapse_ambiguous_degrees([]) == frozenset()
    assert collapse_ambiguous_degrees([Z, Z2]) == frozenset()


# -- KO from column 0 --------------------------------------------------------------


def test_page_row_structure_invariant():
    # raises exactly when the page has a column p >= 1: some H_p (p >= 1) is
    # nonzero, or H_0 has even torsion (its Tor term sits in column 1)
    rng = random.Random(1618)
    accepted = rejected = 0
    for _ in range(200):
        h = [
            FinAbGroup.of(
                rng.randint(0, 3),
                [rng.choice([2, 3, 4, 6, 9]) for _ in range(rng.randint(0, 2))],
            )
            for _ in range(rng.randint(0, 4))
        ]
        if rng.random() < 0.5:
            h[1:] = [ZERO] * len(h[1:])
        if any(not g.is_zero() for g in h[1:]) or (h and not tor_z2(h[0]).is_zero()):
            with pytest.raises(ValueError, match="column"):
                ko_from_bredon(h, ())
            rejected += 1
            continue
        h0 = h[0] if h else ZERO
        gg = ko_from_bredon(h, ())
        assert [gg.entry(n) for n in range(8)] == [
            h0, tensor_z2(h0), tensor_z2(h0), ZERO, h0, ZERO, ZERO, ZERO,
        ]
        assert not gg.extension_ambiguous
        accepted += 1
    assert accepted > 20 and rejected > 20


def test_column_collapse_single_column():
    gg = ko_from_bredon([FinAbGroup.free(8), ZERO, ZERO, ZERO], ())
    assert [str(gg.entry(n)) for n in range(8)] == [
        "Z^8",
        "Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2",
        "Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2",
        "0", "Z^8", "0", "0", "0",
    ]
    assert not gg.extension_ambiguous
    assert [ko_from_bredon([], ()).entry(n) for n in range(8)] == [ZERO] * 8


def test_page_tor_contribution():
    # Tor(Z/2, Z/2) lands in column 1; odd torsion has no Tor term
    with pytest.raises(ValueError, match="column"):
        ko_from_bredon([Z2], ())
    gg = ko_from_bredon([FinAbGroup.of(0, [3])], ())
    assert [str(gg.entry(n)) for n in range(8)] == [
        "Z/3", "0", "0", "0", "Z/3", "0", "0", "0",
    ]


def test_column_collapse_rejects_two_columns():
    with pytest.raises(ValueError) as err:
        ko_from_bredon([Z, Z], ())
    assert "column" in str(err.value)


def test_ko_from_bredon_on_builtin_homology():
    gg = ko_from_bredon(bredon_homology(sl3_datum()), sl3_datum().stabilisers())
    assert gg.entry(0) == FinAbGroup.free(8)
    assert gg.entry(1) == FinAbGroup.of(0, [2] * 8)
    assert gg.entry(3) == ZERO


# -- Kunneth doubling --------------------------------------------------------------


def test_kunneth_doubles_free_ranks():
    doubled, products = kunneth_times_z2(
        [FinAbGroup.free(8), ZERO, Z], [GroupId.sym4(), GroupId.trivial()]
    )
    assert [str(g) for g in doubled] == ["Z^16", "0", "Z^2"]
    assert products == [GroupId.times_z2(GroupId.sym4()), GroupId.cyclic(2)]


def test_kunneth_rejects_torsion():
    with pytest.raises(ValueError):
        kunneth_times_z2([FinAbGroup.of(1, [2])], [])


# -- the stabiliser hypothesis, checked inside ko_from_bredon ----------------------


def test_hypothesis_accepts_coinciding_stabilisers():
    gg = ko_from_bredon(
        [FinAbGroup.free(2)],
        [GroupId.sym4(), parse_name("D6"), GroupId.trivial(), parse_name("Z2xZ2")],
    )
    assert gg.entry(0) == FinAbGroup.free(2)


def test_hypothesis_names_the_offender():
    # the stabilisers are checked before the page: two columns, but Z3 is named
    with pytest.raises(ValueError) as err:
        ko_from_bredon([Z, Z], [GroupId.sym4(), GroupId.cyclic(3)])
    assert "Z3" in str(err.value)


def test_hypothesis_rejects_non_group_ids():
    with pytest.raises(TypeError):
        ko_from_bredon([Z], ["S4"])


def test_hypothesis_refuses_a_column_zero_page():
    # the page [Z] alone would be read; a Z3 cell makes it the wrong page
    with pytest.raises(ValueError, match="Z3 does not have coinciding"):
        ko_from_bredon([Z], [GroupId.cyclic(3)])
