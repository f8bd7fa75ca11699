"""Exact linear algebra over the integers.

Everything downstream (Bredon chain complexes, K- and KO-group assembly)
reduces to three primitives implemented here:

* immutable integer matrices with exact arithmetic,
* Smith normal form by one elimination: on the matrix alone it gives the
  invariant factors for homology; on the matrix bordered by identities it
  also records the unimodular transforms, for `verify`'s snf check,
* finitely generated abelian groups in invariant-factor canonical form.

All arithmetic uses Python's arbitrary-precision integers; there is no
fixed-width fast path anywhere, so intermediate blow-up in the transform
matrices is harmless.
"""

from __future__ import annotations

from itertools import chain, groupby
from math import gcd

from ._value import Value


def _check_int(x) -> int:
    # exactly int: str() of a bool, or of an IntEnum member on Python 3.10,
    # is a name, which no file reads back as a number
    if type(x) is not int:
        raise ValueError(f"expected a Python int, got {x!r}")
    return x


class InputError(ValueError):
    """Input from outside that the program cannot read; the CLI exits 2 on it."""


def ascii_int(text: str) -> int:
    """An optionally signed integer in ASCII digits; `int` alone also reads
    other Unicode digits and underscores, which input may not use."""
    if not (text.isascii() and text.lstrip("+-").isdigit()):
        raise InputError(f"invalid integer {text!r}: expected ASCII digits")
    try:
        return int(text)
    except ValueError as exc:  # more digits than int() converts (3.11+)
        raise InputError(exc) from exc


class ChainComplexError(InputError):
    """Raised when chain-complex data is malformed (shapes or d∘d != 0)."""


class IntMatrix(Value):
    """An immutable rows x cols integer matrix, stored row-major.

    Zero rows or columns are allowed; empty matrices behave as the unique
    linear map between the corresponding free groups.

    >>> a = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> a @ IntMatrix.from_rows([[1, 0], [0, 1]]) == a
    True
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        entries = tuple(entries)  # a list would be unhashable, and unequal to its tuple
        super().__init__(rows, cols, entries)
        if type(rows) is not int or type(cols) is not int:
            raise ValueError(f"matrix dimensions must be ints, got {rows!r} x {cols!r}")
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        # one C-level pass over the types; the per-entry check runs only when
        # some entry is not an exact int, to name it
        if not set(map(type, entries)) <= {int}:
            for e in entries:
                _check_int(e)

    @classmethod
    def from_rows(cls, data) -> "IntMatrix":
        """Build from a list of row lists; no rows make the 0 x 0 matrix."""
        data = [list(row) for row in data]
        width = len(data[0]) if data else 0
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        return cls(len(data), width, tuple(x for row in data for x in row))

    def row_list(self) -> list[list[int]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        a, b = self.entries, other.entries
        out = [0] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                ait = a[base + t]
                if ait:
                    brow = t * m
                    orow = i * m
                    for j in range(m):
                        out[orow + j] += ait * b[brow + j]
        return IntMatrix(n, m, tuple(out))


def _eliminate(a: list[list[int]], nrows: int, ncols: int) -> tuple[int, ...]:
    """Diagonalise the top-left `nrows` x `ncols` block of the rows `a` in place;
    return its invariant factors.

    Row operations act on the block rows over their full width; column
    operations act on the block columns of every row.  So rows of `a` below
    the block, or columns right of it, record the transforms (see
    `smith_normal_form`), and without them the block is the whole matrix.

    Each position t starts from an entry of minimal absolute value in the
    untouched block, the first in row-major order; a unit ends the scan.
    Then it clears column t, then row t, as in the classical column-then-row
    elimination; nothing bounds the growth of the entries.  Every multiplier
    is the quotient by the pivot p rounded to the nearest integer, so every
    remainder has absolute value at most p / 2:

    * the column phase subtracts multiples of the pivot row from the block
      rows below it; if a remainder is left in column t, the row holding the
      smallest one becomes the pivot row and the phase repeats;
    * the row phase subtracts multiples of column t from the later block
      columns.  Column t is zero below the pivot inside the block, so this
      touches only the pivot row and the rows below the block.  If a
      remainder is left in row t, the column holding the smallest one moves
      to t and the column phase resumes;
    * with row and column clear, a pivot other than 1 must divide the rest
      of the block: a row that has an entry it does not divide is added to
      row t, and the row phase resumes.

    Only the first pivot at t comes from a scan of the block.  Every re-pick
    takes a remainder, so it at least halves the pivot, and position t ends
    after at most log2 of its first pivot re-picks.  Updates skip zero
    multipliers and zero entries, and a unit pivot leaves no remainder, so
    the 0/±1 boundaries of Bredon complexes clear in one column pass and one
    row pass per pivot.
    """
    factors = []
    border = a[nrows:]
    for t in range(min(nrows, ncols)):
        best, best_abs = None, 0
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x and (best is None or abs(x) < best_abs):
                    best, best_abs = (i, j), abs(x)
                    if best_abs == 1:
                        break
            if best_abs == 1:
                break
        if best is None:
            break
        bi, col = best
        a[t], a[bi] = a[bi], a[t]
        while col is not None:
            if col != t:
                # Block rows above t are zero from column t on; the rest move.
                for row in a[t:]:
                    row[t], row[col] = row[col], row[t]
            while True:
                # Column phase.  A pivot from the scan or from a remainder
                # may be negative.
                if a[t][t] < 0:
                    a[t] = [-x for x in a[t]]
                prow = a[t]
                p = prow[t]
                half = p >> 1
                pivot_row = [(j, x) for j, x in enumerate(prow) if x]
                least, least_at = p, None
                for i in range(t + 1, nrows):
                    row = a[i]
                    if row[t]:
                        q = (row[t] + half) // p
                        if q:
                            for j, x in pivot_row:
                                row[j] -= q * x
                        if row[t] and abs(row[t]) < least:
                            least, least_at = abs(row[t]), i
                if least_at is None:
                    break
                a[t], a[least_at] = a[least_at], a[t]
            # Row phase.  Column operations leave column t alone, so its
            # support (the pivot and the border rows) is fixed.
            pivot_col = [prow] + [row for row in border if row[t]]
            while True:
                least, col = p, None
                for j in range(t + 1, ncols):
                    if prow[j]:
                        q = (prow[j] + half) // p
                        if q:
                            for row in pivot_col:
                                row[j] -= q * row[t]
                        if prow[j] and abs(prow[j]) < least:
                            least, col = abs(prow[j]), j
                if col is not None or p == 1:
                    break
                offender = next(
                    (row for row in a[t + 1:nrows] if any(x % p for x in row[t + 1:ncols])),
                    None,
                )
                if offender is None:
                    break
                prow[:] = [x + y for x, y in zip(prow, offender)]
        factors.append(p)
    return tuple(factors)


def _smith_factors(m: IntMatrix) -> tuple[int, ...]:
    """The invariant factors of `m`, without transforms.

    >>> _smith_factors(IntMatrix.from_rows([[2, 4], [6, 8]]))
    (2, 4)
    """
    return _eliminate(m.row_list(), m.rows, m.cols)


def _smith_normal_form(m: IntMatrix) -> tuple[tuple[int, ...], IntMatrix, IntMatrix]:
    """`(d, left, right)`: the invariant factors `d` of `m` and unimodular
    transforms with left @ m @ right == diag(d), padded with zeros.  Only
    `verify`'s snf check calls it.

    `_eliminate` runs on `m` bordered by identities, I_rows to its right and
    I_cols below it, and diagonalises the block of `m` only.  Its row
    operations act on the block rows over their full width, so the right
    border becomes `left`; its column operations, which a row phase applies
    to the pivot row and to the rows below the block (column t being clear
    inside the block), turn the lower border into `right`.
    """
    nrows, ncols = m.rows, m.cols
    a = [row + [int(i == k) for k in range(nrows)] for i, row in enumerate(m.row_list())]
    a += [[int(j == k) for k in range(ncols)] for j in range(ncols)]
    d = _eliminate(a, nrows, ncols)
    left = IntMatrix(nrows, nrows, tuple(chain.from_iterable(row[ncols:] for row in a[:nrows])))
    return d, left, IntMatrix(ncols, ncols, tuple(chain.from_iterable(a[nrows:])))


def _invariant_factors(orders, chain) -> tuple[tuple[int, int], ...]:
    """Fold a list of cyclic orders into `chain`, an invariant-factor chain
    of (factor, copies) runs: factors > 1, each dividing the next.

    This is the Smith form of the diagonal matrix of the factors, by pairwise
    gcd and lcm: Z/f + Z/n = Z/gcd(f, n) + Z/lcm(f, n).  Each order meets
    the chain built so far from its smallest factor up, leaving the gcd in
    place and carrying the lcm; no order is ever factored, and a run is
    never expanded.

    >>> _invariant_factors([2, 3], ())
    ((6, 1),)
    >>> _invariant_factors([2, 4, 3, 2], ())
    ((2, 2), (12, 1))
    >>> _invariant_factors([3], ((2, 10**6),))
    ((2, 999999), (6, 1))
    """
    for n in orders:
        _check_int(n)
        if n < 1:
            raise ValueError(f"cyclic order must be >= 1, got {n}")
        # Only the first copy of a factor f changes: the carried lcm is a
        # multiple of f, so the other copies keep their place.
        met = []
        for f, copies in chain:
            g = gcd(f, n)
            met += [(g, 1), (f, copies - 1)]
            n = f // g * n
        met.append((n, 1))
        chain = []
        for f, copies in met:
            if f == 1 or not copies:
                continue
            if chain and chain[-1][0] == f:
                copies += chain.pop()[1]
            chain.append((f, copies))
    return tuple(chain)


class FinAbGroup(Value):
    """A finitely generated abelian group in canonical form.

    `free_rank` copies of Z plus the invariant factors as runs: `torsion` is
    a tuple of (order, copies) pairs, meaning `copies` factors Z/order, with
    orders >= 2, each strictly dividing the next, and copies >= 1.  So
    (Z/2)^b is one pair however large b is.  Construct with `of` to
    normalize arbitrary cyclic decompositions.

    >>> str(FinAbGroup.of(1, [2, 3]))
    'Z + Z/6'
    >>> FinAbGroup.of(0, [2, 4]) == FinAbGroup.of(0, [8])
    False
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[tuple[int, int], ...] = ()):
        torsion = tuple(torsion)  # as in `IntMatrix`
        super().__init__(free_rank, torsion)
        _check_int(free_rank)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        previous = 1
        for run in torsion:
            if type(run) is not tuple or len(run) != 2:
                raise ValueError(f"torsion runs must be (order, copies) pairs, got {run!r}")
            order, copies = map(_check_int, run)
            if order < 2 or copies < 1:
                raise ValueError("torsion runs need an order >= 2 and copies >= 1")
            if order == previous or order % previous:
                raise ValueError("torsion orders must form a strictly increasing "
                                 "divisibility chain")
            previous = order

    @classmethod
    def zero(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    @classmethod
    def of(cls, free_rank: int, cyclic_orders=()) -> "FinAbGroup":
        """Normalize: drop order-1 factors, restore the divisibility chain."""
        return cls(free_rank, _invariant_factors(cyclic_orders, ()))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        terms = []
        if self.free_rank == 1:
            terms.append("Z")
        elif self.free_rank > 1:
            terms.append(f"Z^{self.free_rank}")
        for order, copies in self.torsion:
            term = f"Z/{order}"
            terms.append(f"{term} + " * (copies - 1) + term)
        return " + ".join(terms) if terms else "0"

    __repr__ = __str__


def direct_sum(*groups: FinAbGroup) -> FinAbGroup:
    """Direct sum, renormalized to canonical form.

    >>> str(direct_sum(FinAbGroup.free(6), FinAbGroup.free(1)))
    'Z^7'
    """
    rank = sum(g.free_rank for g in groups)
    # the other groups' factors fold into the runs of the one with the most
    torsions = sorted((g.torsion for g in groups), key=lambda t: sum(c for _, c in t))
    runs = torsions.pop() if torsions else ()
    orders = [d for torsion in torsions for d, copies in torsion for _ in range(copies)]
    return FinAbGroup(rank, _invariant_factors(orders, runs))


def tensor_z2(g: FinAbGroup) -> FinAbGroup:
    """g ⊗ Z/2: one Z/2 per free generator and per even torsion factor.

    >>> str(tensor_z2(FinAbGroup.of(1, [3])))
    'Z/2'
    """
    count = g.free_rank + sum(copies for d, copies in g.torsion if d % 2 == 0)
    return FinAbGroup(0, ((2, count),) if count else ())


def tor_z2(g: FinAbGroup) -> FinAbGroup:
    """Tor(g, Z/2): one Z/2 per even torsion factor; free parts contribute nothing."""
    count = sum(copies for d, copies in g.torsion if d % 2 == 0)
    return FinAbGroup(0, ((2, count),) if count else ())


class IntChainComplex(Value):
    """A bounded chain complex of finitely generated free abelian groups.

    `ranks[i]` is the rank of the chain group in degree i; `boundaries[i]`
    is the matrix of the differential from degree i + 1 down to degree i
    (columns index the higher degree).  The composite of consecutive
    differentials must vanish; this is checked on construction.
    """

    __slots__ = ("ranks", "boundaries")

    def __init__(self, ranks: tuple[int, ...], boundaries: tuple[IntMatrix, ...]):
        ranks, boundaries = tuple(ranks), tuple(boundaries)  # as in `IntMatrix`
        super().__init__(ranks, boundaries)
        if not ranks:
            raise ChainComplexError("a chain complex needs at least one degree")
        for r in ranks:  # 2.0 == 2 would pass the shape checks
            if type(r) is not int or r < 0:
                raise ChainComplexError(f"chain group ranks must be nonnegative ints, got {r!r}")
        if len(boundaries) != len(ranks) - 1:
            raise ChainComplexError(
                f"expected {len(ranks) - 1} boundary maps, got {len(boundaries)}"
            )
        for i, b in enumerate(boundaries):
            if (b.rows, b.cols) != (ranks[i], ranks[i + 1]):
                raise ChainComplexError(
                    f"boundary into degree {i} has shape "
                    f"{b.rows}x{b.cols}, expected {ranks[i]}x{ranks[i + 1]}"
                )
        for i in range(len(boundaries) - 1):
            if not (boundaries[i] @ boundaries[i + 1]).is_zero():
                raise ChainComplexError(
                    f"composite of differentials through degree {i + 1} is nonzero"
                )


def all_homology(c: IntChainComplex) -> list[FinAbGroup]:
    """Homology in every degree of the complex, degree 0 first.

    Each boundary is eliminated once; degree i reads the invariant factors of
    the boundaries out of and into it.  The image of the incoming
    differential sits inside the kernel of the outgoing one (saturated, since
    chain groups are free), so the torsion is exactly the incoming factors
    > 1 -- already a divisibility chain, so equal factors are adjacent and
    group into runs -- and the free rank is the chain rank minus the two
    matrix ranks.
    """
    factors = [()] + [_smith_factors(b) for b in c.boundaries] + [()]
    return [
        FinAbGroup(r - len(factors[i]) - len(factors[i + 1]),
                   tuple((d, len(list(run))) for d, run in groupby(factors[i + 1]) if d > 1))
        for i, r in enumerate(c.ranks)
    ]
