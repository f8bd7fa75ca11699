"""Induction between representation rings, read off the blocks of `expand`."""

import pytest

from equiko.bredon import DatumError, GammaCWDatum, expand
from equiko.groups import GroupId, parse_name


def _block(spec):
    # one edge with the spec's source group, hitting one vertex with its
    # target group; the boundary is the induction matrix itself
    source, target = (parse_name(g) for g in spec.replace("triv", "1").split("->"))
    datum = GammaCWDatum("block", ((("v", target),), (("e", source),)), ((((1, "v", spec),),),))
    return expand(datum).boundaries[0]


def test_induction_from_trivial_is_regular_representation():
    # to Z/m the trivial character induces the regular representation,
    # one copy of each of the m characters
    ind = _block("triv->Zm(5)")
    assert (ind.rows, ind.cols) == (5, 1)
    assert ind.row_list() == [[1], [1], [1], [1], [1]]


def test_cyclic_induction_pattern():
    assert _block("Z2->Z6").row_list() == [
        [1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1],
    ]
    assert _block("Z3->Z6").row_list() == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1],
    ]
    assert _block("triv->Z3").row_list() == [[1], [1], [1]]
    # Z/1 is the trivial group, also as the source of a cyclic inclusion
    assert _block("Zm(1)->Z3").row_list() == [[1], [1], [1]]
    assert _block("triv->1").row_list() == [[1]]
    assert _block("Z3->Z3").row_list() == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1],
    ]


def test_cyclic_induction_requires_divisibility():
    with pytest.raises(DatumError):
        _block("Z4->Z6")


def test_cyclic_induction_transitivity():
    # inducing Z/2 -> Z/4 -> Z/8 equals inducing Z/2 -> Z/8 directly
    via = _block("Z4->Zm(8)") @ _block("Z2->Z4")
    assert via.row_list() == _block("Z2->Zm(8)").row_list()


def test_induction_preserves_total_dimension():
    # a character of Z/d (dimension 1) induces a representation of Z/m of
    # dimension m/d, so every column of the matrix sums to the index
    for d, m in [(1, 6), (2, 6), (3, 6), (2, 8), (5, 10)]:
        source = GroupId.cyclic(d).name() if d > 1 else "triv"
        ind = _block(f"{source}->{GroupId.cyclic(m).name()}")
        assert (ind.rows, ind.cols) == (m, d)
        rows = ind.row_list()
        for j in range(d):
            col_sum = sum(rows[i][j] for i in range(m))
            assert col_sum == m // d
