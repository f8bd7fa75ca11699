"""Induction matrices between representation rings."""

import pytest

from equiko.groups import GroupId, complex_irreducible_count
from equiko.reprings import cyclic_induction, induction_from_trivial


def test_ranks_by_class_count():
    # test_groups covers the catalogue itself; here the Z/2 products and a
    # cyclic order with no table
    assert complex_irreducible_count(GroupId.times_z2(GroupId.sym4())) == 10
    assert complex_irreducible_count(GroupId.times_z2(GroupId.cyclic(3))) == 6
    assert complex_irreducible_count(GroupId.cyclic(1000)) == 1000


def test_induction_from_trivial_is_regular_representation():
    # to Z/m the trivial character induces the regular representation,
    # one copy of each of the m characters
    ind = induction_from_trivial(5)
    assert (ind.rows, ind.cols) == (complex_irreducible_count(GroupId.cyclic(5)), 1)
    assert ind.row_list() == [[1], [1], [1], [1], [1]]


def test_cyclic_induction_pattern():
    ind = cyclic_induction(2, 6)
    assert ind.row_list() == [
        [1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1],
    ]
    assert cyclic_induction(1, 3).row_list() == [[1], [1], [1]]
    assert cyclic_induction(3, 3).row_list() == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1],
    ]


def test_cyclic_induction_requires_divisibility():
    with pytest.raises(ValueError):
        cyclic_induction(4, 6)


def test_cyclic_induction_transitivity():
    # inducing Z/2 -> Z/4 -> Z/8 equals inducing Z/2 -> Z/8 directly
    via = cyclic_induction(4, 8) @ cyclic_induction(2, 4)
    assert via.row_list() == cyclic_induction(2, 8).row_list()


def test_induction_preserves_total_dimension():
    # a character of Z/d (dimension 1) induces a representation of Z/m of
    # dimension m/d, so every column of the matrix sums to the index
    for d, m in [(1, 6), (2, 6), (3, 6), (2, 8), (5, 10)]:
        ind = cyclic_induction(d, m)
        for j in range(d):
            col_sum = sum(ind.entry(i, j) for i in range(m))
            assert col_sum == m // d
