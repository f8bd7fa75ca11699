"""Finite group catalogue: tables, conjugacy classes, indicators."""

import cmath

import pytest

from equiko import groups
from equiko.groups import (
    GroupId,
    UnsupportedGroupError,
    all_tables_coincide,
    build_group,
    character_table,
    complex_irreducible_count,
    cyclic_fs_indicator,
    fs_indicator,
    has_integer_table,
    parse_name,
)

CATALOGUE = [
    GroupId.trivial(),
    GroupId.cyclic(2),
    GroupId.cyclic(3),
    GroupId.cyclic(4),
    GroupId.cyclic(6),
    parse_name("Z2xZ2"),
    GroupId.dihedral(3),
    GroupId.dihedral(4),
    parse_name("D6"),
    GroupId.sym4(),
]

#: The base groups of the catalogue: every group is one of them times (Z/2)^k.
BASES = [
    GroupId.trivial(),
    GroupId.cyclic(2),
    GroupId.cyclic(4),
    GroupId.cyclic(6),
    GroupId.cyclic(8),
    GroupId.dihedral(3),
    GroupId.dihedral(4),
    GroupId.sym4(),
]


def _times_z2(gid, k):
    for _ in range(k):
        gid = GroupId.times_z2(gid)
    return gid


# -- identifiers ---------------------------------------------------------------


def test_names_round_trip():
    for gid in CATALOGUE + [GroupId.times_z2(parse_name("D6"))]:
        assert parse_name(gid.name()) == gid
    for base in BASES:
        for k in range(4):
            gid = _times_z2(base, k)
            assert parse_name(gid.name()) == gid, gid


def test_many_prefixes_parse_without_recursion():
    gid = parse_name("Z2x" * 10**5 + "S4")
    assert (gid.kind, gid.twos) == ("sym4", 10**5)


def test_specific_names():
    assert GroupId.trivial().name() == "1"
    assert GroupId.cyclic(2).name() == "Z2"
    assert GroupId.cyclic(7).name() == "Zm(7)"
    assert GroupId("cyclic", 2, 1).name() == "Z2xZ2"
    assert GroupId("dihedral", 3, 1).name() == "D6"
    assert GroupId("dihedral", 3, 2).name() == "Z2xD6"
    assert GroupId.dihedral(4).name() == "D4"
    assert GroupId.sym4().name() == "S4"
    assert GroupId.times_z2(GroupId.sym4()).name() == "Z2xS4"
    # Z2 x 1 and Z2 x Z2 built as products are Z/2 and the Klein group
    assert GroupId.times_z2(GroupId.trivial()).name() == "Z2"
    assert GroupId.times_z2(GroupId.cyclic(2)).name() == "Z2xZ2"


def test_each_group_has_one_tag():
    # a base group times (Z/2)^twos; Klein is Z/2 x Z/2 and D6 is Z/2 x D3
    assert GroupId.times_z2(GroupId.trivial()) == GroupId.cyclic(2)
    assert GroupId.times_z2(GroupId.cyclic(2)) == GroupId("cyclic", 2, 1)
    assert _times_z2(GroupId.trivial(), 2) == parse_name("Z2xZ2")
    assert GroupId.times_z2(GroupId.dihedral(3)) == GroupId("dihedral", 3, 1)
    assert GroupId.times_z2(parse_name("D6")) == GroupId("dihedral", 3, 2)
    assert GroupId.times_z2(GroupId.cyclic(4)) == GroupId("cyclic", 4, 1)
    # Z/2 x Z/m is Z/2m for odd m, so an odd cyclic base takes no Z/2
    assert GroupId.times_z2(GroupId.cyclic(3)) == GroupId.cyclic(6)
    assert GroupId.times_z2(GroupId.cyclic(5)) == GroupId.cyclic(10)
    for m in (1, 3, 5):
        with pytest.raises(UnsupportedGroupError, match="build it with times_z2"):
            GroupId("cyclic", m, 1)
    # the alternative spellings parse to the one tag
    assert parse_name("Z2x1") == GroupId.cyclic(2)
    assert parse_name("Z2xZm(2)") == parse_name("Z2xZ2")
    assert parse_name("Z2x Z2") == parse_name("Z2xZ2")
    assert parse_name("Z2xZ3") == GroupId.cyclic(6)
    assert parse_name("Z2xZ2xZ3") == GroupId("cyclic", 6, 1)
    assert parse_name("Z2xZm(5)") == GroupId.cyclic(10)
    assert parse_name("Z2xD3") == parse_name("D6")


def test_orders():
    expected = [1, 2, 3, 4, 6, 4, 6, 8, 12, 24]
    assert [g.order() for g in CATALOGUE] == expected
    assert GroupId.times_z2(GroupId.sym4()).order() == 48


def test_bad_identifiers_rejected():
    with pytest.raises(UnsupportedGroupError):
        GroupId.dihedral(5)
    with pytest.raises(UnsupportedGroupError):
        GroupId.cyclic(0)
    with pytest.raises(UnsupportedGroupError):
        GroupId.dihedral(6)  # Z/2 x D3, named D6
    with pytest.raises(UnsupportedGroupError):
        GroupId("sym4", 0, -1)
    # products with Z/2 nest
    assert GroupId.times_z2(GroupId.times_z2(GroupId.sym4())) == GroupId("sym4", 0, 2)
    with pytest.raises(UnsupportedGroupError):
        parse_name("Q8")
    with pytest.raises(UnsupportedGroupError):
        parse_name("")
    # equal to Z/2 and D3, but named Z2.0 and D3.0, which no file can carry
    for kind, m in [("cyclic", 2.0), ("dihedral", 3.0), ("cyclic", True)]:
        with pytest.raises(UnsupportedGroupError):
            GroupId(kind, m)
    with pytest.raises(UnsupportedGroupError, match="must be an int"):
        GroupId("cyclic", 2, 1.0)


@pytest.mark.parametrize("mult, message", [
    ([[0, 1], [1]], "not square"),
    ([[1, 0], [0, 1]], "not an identity"),
    ([[0, 1, 2], [1, 2, 2], [2, 0, 1]], "row is not a permutation"),
    ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column is not a permutation"),
    # a Latin square with identity but no group: 1 * 1 = 0 in an order-5 loop
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     "associativity fails"),
], ids=["square", "identity", "rows", "columns", "associativity"])
def test_bad_multiplication_table_rejected(mult, message):
    with pytest.raises(UnsupportedGroupError, match=message):
        groups._validate_table(mult)


@pytest.mark.parametrize("m", [2.0, True], ids=["float", "bool"])
def test_cyclic_refuses_non_ints_equal_to_an_int(m):
    # 2.0 == 2 and True == 1, so a lookup keyed on the order would answer
    # them with the Z2 or trivial tag built just before
    GroupId.cyclic(int(m))
    with pytest.raises(UnsupportedGroupError, match="must be an int"):
        GroupId.cyclic(m)


def test_cyclic_order_one_is_the_trivial_group():
    # one tag per group: the trivial group is the cyclic group Z/1
    assert GroupId("cyclic", 1) == GroupId.trivial()
    assert GroupId.trivial() == GroupId.cyclic(1) == parse_name("1") == parse_name("Zm(1)")
    with pytest.raises(UnsupportedGroupError, match="unknown group kind"):
        GroupId("trivial")


def test_ranks_by_class_count():
    # test_known_class_counts covers the catalogue itself; here the Z/2
    # products and a cyclic order with no table
    assert complex_irreducible_count(GroupId.times_z2(GroupId.sym4())) == 10
    assert complex_irreducible_count(GroupId.times_z2(GroupId.cyclic(3))) == 6
    assert complex_irreducible_count(GroupId.cyclic(1000)) == 1000


# -- multiplication tables and conjugacy ----------------------------------------


def _inverse(g, a):
    return g.mult[a].index(0)


def _element_order(g, a):
    x, k = a, 1
    while x != 0:
        x = g.mult[x][a]
        k += 1
    return k


def test_group_axioms_hold():
    for gid in CATALOGUE + [GroupId.times_z2(GroupId.dihedral(4))]:
        g = build_group(gid)
        n = g.order
        assert g.mult[0] == tuple(range(n))  # 0 is the identity
        for a in range(n):
            assert g.mult[_inverse(g, a)][a] == 0  # the right inverse is a left one
            assert n % _element_order(g, a) == 0  # Lagrange


def test_class_partition_and_ordering():
    for gid in CATALOGUE:
        g = build_group(gid)
        flat = sorted(e for c in g.classes for e in c)
        assert flat == list(range(g.order))
        assert g.classes[0] == (0,)  # identity class first
        keys = [
            (_element_order(g, c[0]), len(c), c[0]) for c in g.classes
        ]
        assert keys == sorted(keys)
        for ci, c in enumerate(g.classes):
            for e in c:
                assert g.class_index[e] == ci


def test_conjugacy_closed_under_conjugation():
    for gid in [parse_name("D6"), GroupId.sym4()]:
        g = build_group(gid)
        for x in range(g.order):
            for h in range(g.order):
                conj = g.mult[g.mult[h][x]][_inverse(g, h)]
                assert g.class_index[conj] == g.class_index[x]


def test_known_class_counts():
    expected = {
        "1": 1, "Z2": 2, "Z3": 3, "Z4": 4, "Z6": 6,
        "Z2xZ2": 4, "D3": 3, "D4": 5, "D6": 6, "S4": 5,
    }
    for gid in CATALOGUE:
        assert len(build_group(gid).classes) == expected[gid.name()]
        assert complex_irreducible_count(gid) == expected[gid.name()]


def test_square_class_map():
    g = build_group(GroupId.dihedral(4))
    # every reflection and the rotation of order 2 square to the identity
    for ci, c in enumerate(g.classes):
        rep = c[0]
        sq = g.mult[rep][rep]
        assert g.square_class[ci] == g.class_index[sq]


# -- character tables ------------------------------------------------------------


def _degrees(gid):
    return [row[0] for row in character_table(gid)]


def test_character_tables_validate():
    # construction itself runs the orthogonality checks; degrees are standard
    assert sorted(_degrees(GroupId.sym4())) == [1, 1, 2, 3, 3]
    assert sorted(_degrees(GroupId.dihedral(4))) == [1, 1, 1, 1, 2]
    assert sorted(_degrees(parse_name("D6"))) == [1, 1, 1, 1, 2, 2]
    assert sorted(_degrees(GroupId.dihedral(3))) == [1, 1, 2]
    assert _degrees(parse_name("Z2xZ2")) == [1, 1, 1, 1]


def test_character_table_first_orthogonality():
    for name in ["Z2xZ2", "D3", "D4", "D6", "S4"]:
        gid = parse_name(name)
        g = build_group(gid)
        rows = character_table(gid)
        sizes = [len(c) for c in g.classes]
        k = len(rows)
        for i in range(k):
            for j in range(k):
                inner = sum(s * a * b for s, a, b in zip(sizes, rows[i], rows[j]))
                assert inner == (g.order if i == j else 0)


def test_degree_squares_sum_to_order():
    for gid in CATALOGUE:
        if not has_integer_table(gid):
            continue
        assert sum(d * d for d in _degrees(gid)) == build_group(gid).order


def test_non_integral_tables_refused():
    for name in ["Z3", "Z4", "Z6"]:
        with pytest.raises(UnsupportedGroupError):
            character_table(parse_name(name))


def test_product_table_is_kronecker():
    inner = GroupId.dihedral(4)
    prod = GroupId.times_z2(inner)
    ti, tp = character_table(inner), character_table(prod)
    assert len(tp) == 2 * len(ti)
    assert sum(d * d for d in _degrees(prod)) == 16


# -- indicators ------------------------------------------------------------------


def test_fs_indicator_all_one_for_coinciding_groups():
    for name in ["1", "Z2", "Z2xZ2", "D3", "D4", "D6", "S4"]:
        gid = parse_name(name)
        g = build_group(gid)
        for row in character_table(gid):
            assert fs_indicator(g, row) == 1


def test_fs_indicator_counts_involutions():
    # sum of indicator * degree = number of solutions of x^2 = e
    for name in ["Z2", "Z2xZ2", "D3", "D4", "D6", "S4"]:
        gid = parse_name(name)
        g = build_group(gid)
        total = sum(
            fs_indicator(g, row) * row[0]
            for row in character_table(gid)
        )
        involutions = sum(1 for x in range(g.order) if g.mult[x][x] == 0)
        assert total == involutions


def test_fs_indicator_rejects_non_character():
    g = build_group(GroupId.dihedral(3))
    with pytest.raises(ValueError):
        fs_indicator(g, (1, 1))  # wrong length
    with pytest.raises(ValueError):
        fs_indicator(g, (1, 0, 2))  # not a character: non-integral indicator


def test_cyclic_indicator_against_floating_point_sum():
    for m in range(1, 25):
        for j in range(m):
            # (1/m) sum over group elements k of chi_j(k + k)
            total = sum(
                cmath.exp(2 * cmath.pi * 1j * j * (2 * k) / m) for k in range(m)
            )
            numeric = total / m
            expected = cyclic_fs_indicator(m, j)
            assert abs(numeric.real - expected) < 1e-9
            assert abs(numeric.imag) < 1e-9


def test_cyclic_indicator_examples():
    assert cyclic_fs_indicator(1, 0) == 1
    assert cyclic_fs_indicator(2, 1) == 1
    assert cyclic_fs_indicator(3, 1) == 0
    assert cyclic_fs_indicator(4, 2) == 1
    assert cyclic_fs_indicator(4, 1) == 0
    for m, j in ((0, 0), (3, 3), (3, -1)):
        with pytest.raises(ValueError):
            cyclic_fs_indicator(m, j)


# -- table coincidence ------------------------------------------------------------


def test_all_tables_coincide_exact_set():
    coinciding = {"1", "Z2", "Z2xZ2", "D3", "D4", "D6", "S4"}
    for gid in CATALOGUE:
        assert all_tables_coincide(gid) == (gid.name() in coinciding)


def test_all_tables_coincide_z2_products():
    for gid in CATALOGUE:
        prod = GroupId.times_z2(gid)
        assert all_tables_coincide(prod) == all_tables_coincide(gid)


def test_all_tables_coincide_matches_the_full_table():
    # decided on the base; the reference builds the product's own table
    for base in BASES:
        for k in range(3):
            gid = _times_z2(base, k)
            if has_integer_table(gid):
                g = build_group(gid)
                expected = all(fs_indicator(g, row) == 1 for row in character_table(gid))
                assert all_tables_coincide(gid) == expected, gid
            else:
                assert not all_tables_coincide(gid), gid


def test_all_tables_coincide_more_cyclic():
    for m in [5, 7, 8, 9, 12, 15]:
        assert not all_tables_coincide(GroupId.cyclic(m))
