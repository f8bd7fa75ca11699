"""Exact integer linear algebra: Smith normal form, groups, chain homology."""

import enum
import hashlib
import math
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiko import exactlinalg, verify
from equiko.bredon import bredon_homology, fuchsian_noncocompact_datum
from equiko.exactlinalg import (
    ChainComplexError,
    FinAbGroup,
    IntChainComplex,
    IntMatrix,
    all_homology,
    direct_sum,
    smith_normal_form,
    tensor_z2,
    tor_z2,
)
from equiko.fuchsian import parse_signature

Z = FinAbGroup.free(1)


# -- IntMatrix ----------------------------------------------------------------


def test_matrix_construction_and_access():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entry(1, 2) == 6
    assert m.row_list() == [[1, 2, 3], [4, 5, 6]]


def test_matrix_entries_must_be_python_ints():
    for bad in (True, 1.0, "1", None):
        with pytest.raises(ValueError, match="expected a Python int"):
            IntMatrix(2, 1, (0, bad))
    one = enum.IntEnum("Unit", "ONE")
    big = 2**200 + 1
    m = IntMatrix(1, 3, (one.ONE, big, -big))
    assert m.entries == (1, big, -big)


def test_matrix_ragged_rows_rejected():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_matrix_multiplication():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).row_list() == [[2, 1], [4, 3]]
    assert (a @ IntMatrix.identity(2)).row_list() == a.row_list()


def test_matrix_shape_mismatch_rejected():
    a = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        a @ a


def test_determinant_examples():
    assert IntMatrix.from_rows([[2, 0], [0, 3]]).determinant() == 6
    assert IntMatrix.from_rows([[1, 2], [3, 4]]).determinant() == -2
    assert IntMatrix.identity(5).determinant() == 1
    # Bareiss must stay exact far beyond 64-bit range
    big = IntMatrix.diagonal([10**12, 10**12, 10**12])
    assert big.determinant() == 10**36


def test_determinant_vs_permutation_expansion():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        )
        expected = 0
        from itertools import permutations

        for perm in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= m.entry(i, perm[i])
            expected += term
        assert m.determinant() == expected


# -- Smith normal form --------------------------------------------------------


def _minor_gcd_chain(m: IntMatrix) -> list[int]:
    """Invariant factors via gcds of k-by-k minors (independent oracle)."""
    d_prev = 1
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows(
                    [[m.entry(i, j) for j in cols] for i in rows]
                )
                g = math.gcd(g, sub.determinant())
        if g == 0:
            break
        out.append(g // d_prev)
        d_prev = g
    return out


def test_snf_worked_example():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = smith_normal_form(m)
    assert res.d == (2, 4)
    assert (res.left @ m @ res.right).row_list() == [[2, 0], [0, 4]]


def test_snf_zero_and_identity():
    assert smith_normal_form(IntMatrix.diagonal((), 3, 2)).d == ()
    assert smith_normal_form(IntMatrix.identity(4)).d == (1, 1, 1, 1)


def test_snf_rectangular():
    m = IntMatrix.from_rows([[0, 0, 6], [4, 0, 0]])
    res = smith_normal_form(m)
    assert res.d == (2, 12)


# One matrix per branch of the elimination: a column-phase re-pick, a
# row-phase re-pick, a row remainder whose column re-enters the column phase,
# the divisibility repair, negative pivots, and the empty shapes.
_BRANCH_CASES = [
    IntMatrix.from_rows([[2], [3]]),
    IntMatrix.from_rows([[2, 3]]),
    IntMatrix.from_rows([[2, 3], [0, 3]]),
    IntMatrix.from_rows([[2, 0], [0, 3]]),
    IntMatrix.from_rows([[-2, 4], [-6, -8]]),
    IntMatrix(0, 3, ()),
    IntMatrix(3, 0, ()),
]


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(20260819)
    cases = list(_BRANCH_CASES)
    for _ in range(120):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        cases.append(IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        ))
    for m in cases:
        d = smith_normal_form(m).d
        assert list(d) == _minor_gcd_chain(m)
        assert exactlinalg._smith_factors(m) == d


def test_snf_transforms_of_the_verify_matrices_are_pinned():
    # the 1000 seeded matrices of `verify`'s snf check; the digest was taken
    # while the identity borders were still built through `IntMatrix`
    round_trips, _ = verify._snf_matrices()
    digest = hashlib.sha256()
    for m in round_trips:
        res = smith_normal_form(m)
        digest.update(repr((res.d, res.left.entries, res.right.entries)).encode())
    assert digest.hexdigest() == (
        "3a228ec8ce7668178d8fdc290b68c987f66e444b52daac783dafe216ad4f5037")


# each id is the matrix, one text line per row
@pytest.mark.parametrize("m", _BRANCH_CASES, ids=[
    "2\n3", "2 3", "2 3\n0 3", "2 0\n0 3", "-2 4\n-6 -8", "<empty 0x3>", "<empty 3x0>",
])
def test_snf_roundtrip_on_branch_cases(m):
    _assert_snf_roundtrip(m)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_snf_roundtrip_property(r, c, seed):
    rng = random.Random(seed)
    _assert_snf_roundtrip(IntMatrix.from_rows(
        [[rng.randint(-30, 30) for _ in range(c)] for _ in range(r)]
    ))


def _assert_snf_roundtrip(m: IntMatrix) -> None:
    res = smith_normal_form(m)
    # transforms are unimodular
    assert res.left.determinant() in (1, -1)
    assert res.right.determinant() in (1, -1)
    # the product is the stated diagonal
    diagonal = IntMatrix.diagonal(res.d, m.rows, m.cols)
    assert (res.left @ m @ res.right).row_list() == diagonal.row_list()
    # invariant factors are positive and form a divisibility chain
    for a, b in zip(res.d, res.d[1:]):
        assert a > 0 and b % a == 0


# -- invariant factors without transforms ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2, 9, 40]),
    st.sampled_from([0.2, 0.6, 1.0]),
)
def test_smith_factors_match_snf_and_minor_gcds(r, c, seed, bound, density):
    # bound 0 gives zero matrices; r or c 0 gives the empty shapes
    rng = random.Random(seed)
    m = IntMatrix(r, c, tuple(
        rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(r * c)
    ))
    factors = exactlinalg._smith_factors(m)
    assert factors == smith_normal_form(m).d
    assert list(factors) == _minor_gcd_chain(m)


def _unimodular_pair(rng: random.Random, n: int) -> tuple[IntMatrix, IntMatrix]:
    """A random unimodular n x n matrix and its inverse, from elementary moves."""
    p = IntMatrix.identity(n).row_list()
    inv = IntMatrix.identity(n).row_list()
    for _ in range(4 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            # P <- S P and P^-1 <- P^-1 S for the swap S of i and j
            p[i], p[j] = p[j], p[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            # P <- (1 + c e_ij) P and P^-1 <- P^-1 (1 - c e_ij)
            c = rng.choice([-2, -1, 1, 2])
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
            for row in inv:
                row[j] -= c * row[i]
    return IntMatrix.from_rows(p, cols=n), IntMatrix.from_rows(inv, cols=n)


def _complex_with_known_homology(rng: random.Random, free: list[int], pieces):
    """A direct sum of free[n] summands Z in degree n and elementary complexes
    Z --k--> Z from degree n + 1 to n, one per (n, k) in `pieces`, which add
    Z/k to H_n, written in a random basis of every chain group.  Returns the
    complex and its homology.
    """
    top = len(free) - 1
    basis = [[] for _ in range(top + 1)]  # per degree: ("free",), ("src", p), ("dst", p)
    for n, count in enumerate(free):
        basis[n] += [("free",)] * count
    for p, (n, _) in enumerate(pieces):
        basis[n].append(("dst", p))
        basis[n + 1].append(("src", p))
    ranks = [len(b) for b in basis]
    bases = [_unimodular_pair(rng, r) for r in ranks]
    boundaries = []
    for n in range(1, top + 1):
        d = IntMatrix.from_rows(
            [[pieces[src[1]][1] if src[0] == "src" and dst == ("dst", src[1]) else 0
              for src in basis[n]] for dst in basis[n - 1]],
            cols=ranks[n],
        )
        boundaries.append(bases[n - 1][0] @ d @ bases[n][1])
    c = IntChainComplex(tuple(ranks), tuple(boundaries))
    expected = [
        FinAbGroup.of(free[n], [k for m, k in pieces if m == n]) for n in range(top + 1)
    ]
    return c, expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_all_homology_on_complexes_with_known_homology(top, seed):
    rng = random.Random(seed)
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    pieces = [(n, rng.choice([1, 1, 2, 3, 4, 6, 12])) for n in range(top)
              for _ in range(rng.randint(0, 3))]
    c, expected = _complex_with_known_homology(rng, free, pieces)
    assert all_homology(c) == expected


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_all_homology_on_dense_complexes_with_entry_growth(seed):
    # About 30 pieces per degree, as in the dense [matrix.N] complexes: the
    # boundaries are dense, pivots are re-picked many times per position and
    # entries grow well past their input size during elimination.
    rng = random.Random(seed)
    free = [rng.randint(1, 3) for _ in range(3)]
    pieces = [(n, rng.randint(1, 6)) for n in (0, 1) for _ in range(rng.randint(28, 32))]
    c, expected = _complex_with_known_homology(rng, free, pieces)
    assert all_homology(c) == expected
    for b in c.boundaries:
        assert exactlinalg._smith_factors(b) == smith_normal_form(b).d


# -- the homology path ---------------------------------------------------------------


def _count_eliminations(monkeypatch) -> list[tuple[int, int]]:
    """Make SNF with transforms raise; record the shape of every kernel call."""

    def refuse(m):
        raise AssertionError("homology must not build SNF transforms")

    kernel = exactlinalg._smith_factors
    shapes = []

    def counting(m):
        shapes.append((m.rows, m.cols))
        return kernel(m)

    monkeypatch.setattr(exactlinalg, "smith_normal_form", refuse)
    monkeypatch.setattr(exactlinalg, "_smith_factors", counting)
    return shapes


def test_all_homology_eliminates_each_boundary_once(monkeypatch):
    shapes = _count_eliminations(monkeypatch)
    # cellular chains of RP^3: Z <-0- Z <-2- Z <-0- Z
    d1 = d3 = IntMatrix.diagonal((), 1, 1)
    d2 = IntMatrix.from_rows([[2]])
    c = IntChainComplex(ranks=(1, 1, 1, 1), boundaries=(d1, d2, d3))
    assert [str(g) for g in all_homology(c)] == ["Z", "Z/2", "0", "Z"]
    assert len(shapes) == len(c.boundaries)


def test_one_elimination_serves_snf_and_homology(monkeypatch):
    kernel = exactlinalg._eliminate
    calls = []

    def spy(a, nrows, ncols):
        calls.append((len(a), len(a[0]) if a else 0, nrows, ncols))
        return kernel(a, nrows, ncols)

    monkeypatch.setattr(exactlinalg, "_eliminate", spy)
    m = IntMatrix.from_rows([[0, 0, 6], [4, 0, 0]])
    assert smith_normal_form(m).d == (2, 12)
    # bordered: [m | I_2] over I_3, diagonalised in its 2 x 3 block
    assert calls == [(5, 5, 2, 3)]
    calls.clear()
    d1 = d3 = IntMatrix.diagonal((), 1, 1)
    d2 = IntMatrix.from_rows([[2]])
    c = IntChainComplex(ranks=(1, 1, 1, 1), boundaries=(d1, d2, d3))
    assert [str(g) for g in all_homology(c)] == ["Z", "Z/2", "0", "Z"]
    assert calls == [(1, 1, 1, 1)] * 3


def test_bredon_homology_eliminates_each_boundary_once(monkeypatch):
    shapes = _count_eliminations(monkeypatch)
    datum = fuchsian_noncocompact_datum(parse_signature("[0,2;997,991]"))
    assert [str(g) for g in bredon_homology(datum)] == ["Z^1987", "Z"]
    assert shapes == [(1989, 3)]


# -- FinAbGroup ---------------------------------------------------------------


def test_group_rendering():
    assert str(FinAbGroup.zero()) == "0"
    assert str(FinAbGroup.free(1)) == "Z"
    assert str(FinAbGroup.free(5)) == "Z^5"
    assert str(FinAbGroup.of(0, [2])) == "Z/2"
    assert str(FinAbGroup.of(2, [2, 4])) == "Z^2 + Z/2 + Z/4"
    assert str(FinAbGroup(1, (2, 2, 4, 4, 4, 12))) == "Z + Z/2 + Z/2 + Z/4 + Z/4 + Z/4 + Z/12"


def test_group_normalizes_to_invariant_factors():
    # Z/2 + Z/3 is cyclic of order 6
    assert FinAbGroup.of(0, [2, 3]) == FinAbGroup.of(0, [6])
    assert FinAbGroup.of(0, [4, 6]).torsion == (2, 12)
    assert FinAbGroup.of(0, [2, 2, 3]).torsion == (2, 6)
    # unit factors vanish
    assert FinAbGroup.of(1, [1, 1]) == FinAbGroup.free(1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 720), max_size=8))
def test_invariant_factors_are_the_smith_form_of_the_diagonal(orders):
    smith = smith_normal_form(IntMatrix.diagonal(orders)).d
    assert FinAbGroup.of(0, orders).torsion == tuple(d for d in smith if d > 1)


def test_invariant_factors_of_many_equal_orders():
    g = FinAbGroup.of(0, [2] * 50_000 + [3, 4])
    assert g.torsion == (2,) * 50_000 + (12,)
    assert direct_sum(g, g).torsion == (2,) * 100_000 + (12, 12)


def test_group_rejects_bad_input():
    with pytest.raises(ValueError):
        FinAbGroup.of(-1, [])
    with pytest.raises(ValueError):
        FinAbGroup.of(0, [0])
    for torsion, message in [((2, 3), "divisibility"), ((1, 2), ">= 2"), ((4, 0), ">= 2"),
                             ((2, -2), ">= 2"), ((2, True), "Python int"), ((2.0,), "Python int")]:
        with pytest.raises(ValueError, match=message):
            FinAbGroup(0, torsion)
    # an int subclass is not of type int but passes the Python-int check
    two = enum.IntEnum("Two", "A B")
    assert FinAbGroup(0, (two.B, 4)).torsion == (2, 4)


def test_direct_sum():
    a = FinAbGroup.of(1, [2])
    b = FinAbGroup.of(2, [3])
    assert direct_sum(a, b) == FinAbGroup.of(3, [6])
    assert direct_sum() == FinAbGroup.zero()


def _brute_counts(g: FinAbGroup):
    """|G (x) Z/2| and |Tor(G, Z/2)| by enumerating the torsion part."""
    dims = list(g.torsion)
    two_torsion = 0
    elements = 0
    image_of_2 = set()
    for tup in product(*[range(d) for d in dims]) if dims else [()]:
        elements += 1
        if all((2 * x) % d == 0 for x, d in zip(tup, dims)):
            two_torsion += 1
        image_of_2.add(tuple((2 * x) % d for x, d in zip(tup, dims)))
    quotient_by_2 = elements // len(image_of_2) if elements else 1
    return quotient_by_2 * 2**g.free_rank, two_torsion


def test_tensor_and_tor_with_z2_against_enumeration():
    rng = random.Random(99)
    seen = [
        FinAbGroup.zero(),
        FinAbGroup.free(2),
        FinAbGroup.of(1, [2, 4]),
        FinAbGroup.of(0, [3]),
        FinAbGroup.of(0, [6, 6]),
    ]
    for _ in range(25):
        free = rng.randint(0, 3)
        torsion = [rng.choice([2, 3, 4, 5, 6]) for _ in range(rng.randint(0, 3))]
        seen.append(FinAbGroup.of(free, torsion))
    for g in seen:
        tensor_size, tor_size = _brute_counts(g)
        t = tensor_z2(g)
        assert t.torsion == tuple([2] * len(t.torsion))
        assert 2 ** len(t.torsion) == tensor_size and t.free_rank == 0
        o = tor_z2(g)
        assert 2 ** len(o.torsion) == tor_size and o.free_rank == 0


# -- chain complexes and homology ----------------------------------------------


def test_chain_complex_rejects_nonzero_composite():
    d1 = IntMatrix.from_rows([[1, 0], [0, 1]])
    d2 = IntMatrix.from_rows([[1], [0]])
    with pytest.raises(ChainComplexError):
        IntChainComplex(ranks=(2, 2, 1), boundaries=(d1, d2))


def test_chain_complex_rejects_shape_mismatch():
    with pytest.raises(ChainComplexError):
        IntChainComplex(ranks=(2, 3), boundaries=(IntMatrix.diagonal((), 5, 3),))


def test_homology_circle():
    # one 0-cell, one 1-cell glued trivially
    c = IntChainComplex(ranks=(1, 1), boundaries=(IntMatrix.diagonal((), 1, 1),))
    assert all_homology(c) == [Z, Z]


def test_homology_two_sphere():
    # two cells in each dimension, standard CW structure
    d1 = IntMatrix.from_rows([[1, 1], [-1, -1]])
    d2 = IntMatrix.from_rows([[1, -1], [-1, 1]])
    c = IntChainComplex(ranks=(2, 2, 2), boundaries=(d1, d2))
    assert [str(g) for g in all_homology(c)] == ["Z", "0", "Z"]


def test_homology_real_projective_plane():
    d1 = IntMatrix.diagonal((), 1, 1)
    d2 = IntMatrix.from_rows([[2]])
    c = IntChainComplex(ranks=(1, 1, 1), boundaries=(d1, d2))
    assert [str(g) for g in all_homology(c)] == ["Z", "Z/2", "0"]


def test_homology_torus():
    d1 = IntMatrix.diagonal((), 1, 2)
    d2 = IntMatrix.diagonal((), 2, 1)
    c = IntChainComplex(ranks=(1, 2, 1), boundaries=(d1, d2))
    assert [str(g) for g in all_homology(c)] == ["Z", "Z^2", "Z"]


def _kernel_columns(m: IntMatrix) -> IntMatrix:
    res = smith_normal_form(m)
    rank = len(res.d)
    cols = [
        [res.right.entry(i, j) for j in range(rank, m.cols)]
        for i in range(m.cols)
    ]
    return IntMatrix.from_rows(cols)


def test_euler_characteristic_on_random_two_step_complexes():
    rng = random.Random(4242)
    for _ in range(40):
        r0, r1 = rng.randint(1, 5), rng.randint(1, 5)
        d1 = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(r1)] for _ in range(r0)]
        )
        ker = _kernel_columns(d1)
        if ker.cols == 0:
            c = IntChainComplex(ranks=(r0, r1), boundaries=(d1,))
        else:
            # scale kernel columns to keep d1 @ d2 = 0 while varying torsion
            scales = [rng.randint(-3, 3) for _ in range(ker.cols)]
            scaled = IntMatrix.from_rows(
                [
                    [scales[j] * ker.entry(i, j) for j in range(ker.cols)]
                    for i in range(ker.rows)
                ]
            )
            c = IntChainComplex(ranks=(r0, r1, ker.cols), boundaries=(d1, scaled))
        chain_euler = sum(
            (-1) ** i * r for i, r in enumerate(c.ranks)
        )
        homology_euler = sum(
            (-1) ** i * h.free_rank for i, h in enumerate(all_homology(c))
        )
        assert chain_euler == homology_euler
