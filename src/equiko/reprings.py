"""Induction matrices between representation rings of the catalogue groups.

A representation ring is used here only through its underlying free abelian
group Z^rank (`groups.complex_irreducible_count`), with the basis given by
irreducible characters in the fixed catalogue order (for cyclic groups:
characters indexed 0..m-1).  Induction along a subgroup inclusion is then a
nonnegative integer matrix whose rows index irreducibles of the target and
whose columns index irreducibles of the source.  Two families cover every
complex we build:

* induction from the trivial group (the regular representation), and
* induction along Z/d <= Z/m for d | m, where the character indexed j
  induces to the sum of the characters indexed j, j+d, j+2d, ...
  (restriction being reduction of the index mod d).
"""

from __future__ import annotations

from .exactlinalg import IntMatrix


def _check_column_sums(matrix: IntMatrix, index: int) -> None:
    # For inductions between groups whose irreducibles all have degree 1
    # (trivial and cyclic groups), dimension count says each column must sum
    # to the subgroup index.
    for j in range(matrix.cols):
        total = sum(matrix.entry(i, j) for i in range(matrix.rows))
        if total != index:
            raise ValueError(
                f"column {j} sums to {total}, expected the subgroup index {index}"
            )


def induction_from_trivial(m: int) -> IntMatrix:
    """Induction from the trivial group to Z/m: 1 goes to the regular rep.

    >>> induction_from_trivial(3).entries
    (1, 1, 1)
    """
    if m < 1:
        raise ValueError("cyclic order must be >= 1")
    matrix = IntMatrix(m, 1, (1,) * m)
    _check_column_sums(matrix, m)
    return matrix


def cyclic_induction(d: int, m: int) -> IntMatrix:
    """Induction along Z/d <= Z/m (requires d | m).

    The character indexed j of Z/d induces to the sum of all characters of
    Z/m whose index reduces to j mod d.

    >>> cyclic_induction(2, 4).row_list()
    [[1, 0], [0, 1], [1, 0], [0, 1]]
    """
    if d < 1 or m < 1:
        raise ValueError("cyclic orders must be >= 1")
    if m % d != 0:
        raise ValueError(f"Z/{d} is not a subgroup of Z/{m}")
    matrix = IntMatrix(
        m, d, tuple(1 if k % d == j else 0 for k in range(m) for j in range(d))
    )
    _check_column_sums(matrix, m // d)
    return matrix
