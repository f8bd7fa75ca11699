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
from equiko.bredon import bredon_homology, fuchsian_datum
from equiko.exactlinalg import (
    ChainComplexError,
    FinAbGroup,
    IntChainComplex,
    IntMatrix,
    all_homology,
    direct_sum,
    tensor_z2,
    tor_z2,
)
from equiko.fuchsian import parse_signature

Z = FinAbGroup.free(1)
_smith_normal_form = exactlinalg._smith_normal_form
_determinant = verify._determinant


def _diagonal(d, rows: int, cols: int) -> IntMatrix:
    """The rows x cols matrix with `d` on the main diagonal, zero elsewhere."""
    return IntMatrix(rows, cols, tuple(
        d[i] if i == j and i < len(d) else 0 for i in range(rows) for j in range(cols)))


# -- IntMatrix ----------------------------------------------------------------


def test_matrix_construction_and_access():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    rows = m.row_list()
    assert rows[1][2] == 6
    assert rows == [[1, 2, 3], [4, 5, 6]]


def test_matrix_entries_must_be_python_ints():
    # an IntEnum member equals its value, but Python 3.10 writes it by name
    # (`E.A`), which no file reads back
    one = enum.IntEnum("Unit", "ONE")
    for bad in (True, 1.0, "1", None, one.ONE):
        with pytest.raises(ValueError, match="expected a Python int"):
            IntMatrix(2, 1, (0, bad))
    big = 2**200 + 1
    m = IntMatrix(1, 2, (big, -big))
    assert m.entries == (big, -big)


@pytest.mark.parametrize("rows, cols", [(2.0, 1), (1, 2.0), (True, 2), ("1", 2)],
                         ids=["float-rows", "float-cols", "bool", "str"])
def test_matrix_dimensions_must_be_python_ints(rows, cols):
    # 2.0 * 1 == 2 entries pass the length check, but the matrix cannot be
    # formatted or reduced
    with pytest.raises(ValueError, match="dimensions must be ints"):
        IntMatrix(rows, cols, (1, 1))


def test_matrix_ragged_rows_rejected():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_matrix_multiplication():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).row_list() == [[2, 1], [4, 3]]
    assert (a @ _diagonal([1] * 2, 2, 2)).row_list() == a.row_list()


def test_matrix_shape_mismatch_rejected():
    a = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        a @ a


def test_determinant_examples():
    assert _determinant([[2, 0], [0, 3]]) == 6
    assert _determinant([[1, 2], [3, 4]]) == -2
    assert _determinant(_diagonal([1] * 5, 5, 5).row_list()) == 1
    assert _determinant([]) == 1
    # a zero pivot swaps rows, a zero column ends it
    assert _determinant([[0, 1], [1, 0]]) == -1
    assert _determinant([[0, 1], [0, 2]]) == 0
    # Bareiss must stay exact far beyond 64-bit range
    assert _determinant(_diagonal([10**12, 10**12, 10**12], 3, 3).row_list()) == 10**36


def test_determinant_vs_permutation_expansion():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        )
        entries = m.row_list()
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
                term *= entries[i][perm[i]]
            expected += term
        assert _determinant(m.row_list()) == expected


# -- Smith normal form --------------------------------------------------------


def _minor_gcd_chain(m: IntMatrix) -> list[int]:
    """Invariant factors via gcds of k-by-k minors (independent oracle)."""
    entries = m.row_list()
    d_prev = 1
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                g = math.gcd(g, _determinant([[entries[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        out.append(g // d_prev)
        d_prev = g
    return out


def test_snf_worked_example():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    d, left, right = _smith_normal_form(m)
    assert d == (2, 4)
    assert (left @ m @ right).row_list() == [[2, 0], [0, 4]]


def test_snf_zero_and_identity():
    assert _smith_normal_form(_diagonal((), 3, 2))[0] == ()
    assert _smith_normal_form(_diagonal([1] * 4, 4, 4))[0] == (1, 1, 1, 1)


def test_snf_rectangular():
    m = IntMatrix.from_rows([[0, 0, 6], [4, 0, 0]])
    assert _smith_normal_form(m)[0] == (2, 12)


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
        d = _smith_normal_form(m)[0]
        assert list(d) == _minor_gcd_chain(m)
        assert exactlinalg._smith_factors(m) == d


def test_snf_transforms_of_the_verify_matrices_are_pinned(monkeypatch):
    # the 1000 seeded round-trip matrices of `verify`'s snf parts; the digest
    # was retaken, with the kernel unchanged, when the matrices came to be
    # drawn from bytes and again when each part came to draw its own
    digest = hashlib.sha256()

    def pinned(m):
        d, left, right = _smith_normal_form(m)
        digest.update(repr((d, left.entries, right.entries)).encode())
        return d, left, right

    monkeypatch.setattr(exactlinalg, "_smith_normal_form", pinned)
    for index in range(verify._SNF_PARTS):
        verify._run_snf_part(index)
    assert digest.hexdigest() == (
        "679dacca77bc809ac39186ac0cc54ba51dcc0f952e9d7fcc283ca20469ff3d73")


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
    d, left, right = _smith_normal_form(m)
    # transforms are unimodular
    assert _determinant(left.row_list()) in (1, -1)
    assert _determinant(right.row_list()) in (1, -1)
    # the product is the stated diagonal
    assert (left @ m @ right).row_list() == _diagonal(d, m.rows, m.cols).row_list()
    # invariant factors are positive and form a divisibility chain
    assert all(a > 0 for a in d)
    for a, b in zip(d, d[1:]):
        assert b % a == 0
    # and `verify`'s snf check accepts them
    assert verify._check_smith_form(m) == d


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
    assert factors == _smith_normal_form(m)[0]
    assert list(factors) == _minor_gcd_chain(m)


def _unimodular_pair(rng: random.Random, n: int) -> tuple[IntMatrix, IntMatrix]:
    """A random unimodular n x n matrix and its inverse, from elementary moves."""
    p = _diagonal([1] * n, n, n).row_list()
    inv = _diagonal([1] * n, n, n).row_list()
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
    return IntMatrix.from_rows(p), IntMatrix.from_rows(inv)


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
        d = IntMatrix(ranks[n - 1], ranks[n], tuple(
            pieces[src[1]][1] if src[0] == "src" and dst == ("dst", src[1]) else 0
            for dst in basis[n - 1] for src in basis[n]
        ))
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
        assert exactlinalg._smith_factors(b) == _smith_normal_form(b)[0]


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

    monkeypatch.setattr(exactlinalg, "_smith_normal_form", refuse)
    monkeypatch.setattr(exactlinalg, "_smith_factors", counting)
    return shapes


def test_all_homology_eliminates_each_boundary_once(monkeypatch):
    shapes = _count_eliminations(monkeypatch)
    # cellular chains of RP^3: Z <-0- Z <-2- Z <-0- Z
    d1 = d3 = _diagonal((), 1, 1)
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
    assert _smith_normal_form(m)[0] == (2, 12)
    # bordered: [m | I_2] over I_3, diagonalised in its 2 x 3 block
    assert calls == [(5, 5, 2, 3)]
    calls.clear()
    d1 = d3 = _diagonal((), 1, 1)
    d2 = IntMatrix.from_rows([[2]])
    c = IntChainComplex(ranks=(1, 1, 1, 1), boundaries=(d1, d2, d3))
    assert [str(g) for g in all_homology(c)] == ["Z", "Z/2", "0", "Z"]
    assert calls == [(1, 1, 1, 1)] * 3


def test_bredon_homology_eliminates_each_boundary_once(monkeypatch):
    shapes = _count_eliminations(monkeypatch)
    datum = fuchsian_datum(parse_signature("[0,2;997,991]"))
    assert [str(g) for g in bredon_homology(datum)] == ["Z^1987", "Z"]
    assert shapes == [(1989, 3)]


# -- FinAbGroup ---------------------------------------------------------------


def test_group_rendering():
    assert str(FinAbGroup.zero()) == "0"
    assert str(FinAbGroup.free(1)) == "Z"
    assert str(FinAbGroup.free(5)) == "Z^5"
    assert str(FinAbGroup.of(0, [2])) == "Z/2"
    assert str(FinAbGroup.of(2, [2, 4])) == "Z^2 + Z/2 + Z/4"
    assert (str(FinAbGroup(1, ((2, 2), (4, 3), (12, 1))))
            == "Z + Z/2 + Z/2 + Z/4 + Z/4 + Z/4 + Z/12")
    # each run renders as its factors one by one
    for rank, runs in [(0, ((2, 5000),)), (3, ((3, 1), (6, 40), (12, 7))), (1, ((5, 1),))]:
        flat = [f"Z/{d}" for d, copies in runs for _ in range(copies)]
        free = ["Z" if rank == 1 else f"Z^{rank}"] if rank else []
        assert str(FinAbGroup(rank, runs)) == " + ".join(free + flat)


def test_group_normalizes_to_invariant_factors():
    # Z/2 + Z/3 is cyclic of order 6
    assert FinAbGroup.of(0, [2, 3]) == FinAbGroup.of(0, [6])
    assert FinAbGroup.of(0, [4, 6]).torsion == ((2, 1), (12, 1))
    assert FinAbGroup.of(0, [2, 2, 3]).torsion == ((2, 1), (6, 1))
    # unit factors vanish
    assert FinAbGroup.of(1, [1, 1]) == FinAbGroup.free(1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 720), max_size=8))
def test_invariant_factors_are_the_smith_form_of_the_diagonal(orders):
    smith = _smith_normal_form(_diagonal(orders, len(orders), len(orders)))[0]
    runs = FinAbGroup.of(0, orders).torsion
    assert [d for d, copies in runs for _ in range(copies)] == [d for d in smith if d > 1]
    assert [d for d, _ in runs] == sorted({d for d in smith if d > 1})


def test_invariant_factors_of_many_equal_orders():
    g = FinAbGroup.of(0, [2] * 50_000 + [3, 4])
    assert g.torsion == ((2, 50_000), (12, 1))
    assert direct_sum(g, g).torsion == ((2, 100_000), (12, 2))


def test_direct_sum_folds_into_the_most_factors_without_expanding_them(monkeypatch):
    # (Z/2)^(10^6) + Z/3 = (Z/2)^999999 + Z/6: only the order 3 is folded,
    # into the runs of the group with the most factors, wherever it stands
    folded = []
    fold = exactlinalg._invariant_factors

    def spy(orders, *chain):
        folded.extend(orders)
        return fold(orders, *chain)

    monkeypatch.setattr(exactlinalg, "_invariant_factors", spy)
    many = FinAbGroup(0, ((2, 10**6),))
    for summands, rank in [((many, FinAbGroup.of(0, [3])), 0), ((FinAbGroup.of(1, [3]), many), 1)]:
        folded.clear()
        assert direct_sum(*summands) == FinAbGroup(rank, ((2, 999_999), (6, 1)))
        assert folded == [3]


def test_group_rejects_bad_input():
    with pytest.raises(ValueError):
        FinAbGroup.of(-1, [])
    with pytest.raises(ValueError):
        FinAbGroup.of(0, [0])
    for torsion, message in [(((2, 1), (3, 1)), "divisibility"), (((1, 1), (2, 1)), ">= 2"),
                             (((4, 1), (0, 1)), ">= 2"), (((2, 1), (-2, 1)), ">= 2"),
                             (((2, 1), (True, 1)), "Python int"), (((2.0, 1),), "Python int"),
                             (((2, 0),), "copies >= 1"), (((2, -1),), ">= 1"),
                             (((2, True),), "Python int"), (((2, 1), (2, 1)), "increasing"),
                             (((4, 1), (2, 1)), "divisibility"), ((2, 4), "pairs"),
                             (((2, 1, 1),), "pairs"), (([2, 1],), "pairs")]:
        with pytest.raises(ValueError, match=message):
            FinAbGroup(0, torsion)
    # an int subclass is refused like any other non-int
    two = enum.IntEnum("Two", "A B")
    for torsion in (((two.B, 1),), ((4, two.A),)):
        with pytest.raises(ValueError, match="Python int"):
            FinAbGroup(0, torsion)


def test_direct_sum():
    a = FinAbGroup.of(1, [2])
    b = FinAbGroup.of(2, [3])
    assert direct_sum(a, b) == FinAbGroup.of(3, [6])
    assert direct_sum() == FinAbGroup.zero()


_small_groups = st.builds(
    FinAbGroup.of,
    st.integers(0, 3),
    st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 25, 36, 72]), max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_small_groups, st.integers(1, 4)), max_size=4))
def test_direct_sum_equals_the_normal_form_of_the_expanded_orders(summands):
    # each group taken `times` times, so runs of equal orders meet across summands
    groups = [g for g, times in summands for _ in range(times)]
    orders = [d for g in groups for d, copies in g.torsion for _ in range(copies)]
    expected = FinAbGroup.of(sum(g.free_rank for g in groups), orders)
    assert direct_sum(*groups) == expected


def _brute_counts(g: FinAbGroup):
    """|G (x) Z/2| and |Tor(G, Z/2)| by enumerating the torsion part."""
    dims = [d for d, copies in g.torsion for _ in range(copies)]
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
        for h, size in [(tensor_z2(g), tensor_size), (tor_z2(g), tor_size)]:
            assert [d for d, _ in h.torsion] in ([], [2])
            assert 2 ** sum(copies for _, copies in h.torsion) == size and h.free_rank == 0
    # a run is counted, never walked factor by factor
    huge = FinAbGroup(0, ((2, 10**12),))
    assert tensor_z2(huge) == tor_z2(huge) == huge
    big = FinAbGroup(10**12, ((4, 10**12), (12, 1)))
    assert tensor_z2(big) == FinAbGroup(0, ((2, 2 * 10**12 + 1),))
    assert tor_z2(big) == FinAbGroup(0, ((2, 10**12 + 1),))


# -- chain complexes and homology ----------------------------------------------


def test_chain_complex_rejects_nonzero_composite():
    d1 = IntMatrix.from_rows([[1, 0], [0, 1]])
    d2 = IntMatrix.from_rows([[1], [0]])
    with pytest.raises(ChainComplexError):
        IntChainComplex(ranks=(2, 2, 1), boundaries=(d1, d2))


@pytest.mark.parametrize("rank", [2.0, True], ids=["float", "bool"])
def test_chain_complex_rejects_ranks_that_are_not_ints(rank):
    # 2.0 == 2 and True == 1, so each would pass the shape check below
    with pytest.raises(ChainComplexError) as exc:
        IntChainComplex((rank, 1), (IntMatrix(int(rank), 1, (0,) * int(rank)),))
    assert str(exc.value) == f"chain group ranks must be nonnegative ints, got {rank!r}"


def test_chain_complex_rejects_shape_mismatch():
    with pytest.raises(ChainComplexError):
        IntChainComplex(ranks=(2, 3), boundaries=(_diagonal((), 5, 3),))


def test_homology_circle():
    # one 0-cell, one 1-cell glued trivially
    c = IntChainComplex(ranks=(1, 1), boundaries=(_diagonal((), 1, 1),))
    assert all_homology(c) == [Z, Z]


def test_homology_two_sphere():
    # two cells in each dimension, standard CW structure
    d1 = IntMatrix.from_rows([[1, 1], [-1, -1]])
    d2 = IntMatrix.from_rows([[1, -1], [-1, 1]])
    c = IntChainComplex(ranks=(2, 2, 2), boundaries=(d1, d2))
    assert [str(g) for g in all_homology(c)] == ["Z", "0", "Z"]


def test_homology_real_projective_plane():
    d1 = _diagonal((), 1, 1)
    d2 = IntMatrix.from_rows([[2]])
    c = IntChainComplex(ranks=(1, 1, 1), boundaries=(d1, d2))
    assert [str(g) for g in all_homology(c)] == ["Z", "Z/2", "0"]


def test_homology_torus():
    d1 = _diagonal((), 1, 2)
    d2 = _diagonal((), 2, 1)
    c = IntChainComplex(ranks=(1, 2, 1), boundaries=(d1, d2))
    assert [str(g) for g in all_homology(c)] == ["Z", "Z^2", "Z"]


def _kernel_columns(m: IntMatrix) -> IntMatrix:
    d, _, right = _smith_normal_form(m)
    rank = len(d)
    right = right.row_list()
    cols = [
        [right[i][j] for j in range(rank, m.cols)]
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
            kernel = ker.row_list()
            scaled = IntMatrix.from_rows(
                [
                    [scales[j] * kernel[i][j] for j in range(ker.cols)]
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
