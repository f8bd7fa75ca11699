"""Exact linear algebra over the integers.

Everything downstream (Bredon chain complexes, K- and KO-group assembly)
reduces to three primitives implemented here:

* immutable integer matrices with exact arithmetic,
* Smith normal form by one elimination: on the matrix alone it gives the
  invariant factors for homology; on the matrix bordered by identities it
  also records the unimodular transforms,
* finitely generated abelian groups in invariant-factor canonical form.

All arithmetic uses Python's arbitrary-precision integers; there is no
fixed-width fast path anywhere, so intermediate blow-up in the transform
matrices is harmless.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, islice
from math import gcd
from operator import mod

from ._value import Value


class ChainComplexError(ValueError):
    """Raised when chain-complex data is malformed (shapes or d∘d != 0)."""


def _check_int(x) -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"expected a Python int, got {x!r}")
    return x


def ascii_int(text: str) -> int:
    """An optionally signed integer in ASCII digits; `int` alone also reads
    other Unicode digits and underscores, which input may not use."""
    if not (text.isascii() and text.lstrip("+-").isdigit()):
        raise ValueError(f"invalid integer {text!r}: expected ASCII digits")
    return int(text)


class IntMatrix(Value):
    """An immutable rows x cols integer matrix, stored row-major.

    Zero rows or columns are allowed; empty matrices behave as the unique
    linear map between the corresponding free groups.

    >>> a = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> b = IntMatrix.identity(2)
    >>> a @ b == a
    True
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        # one C-level pass over the types; the per-entry check runs only when
        # some entry is not an exact int, and gives the same accept/reject
        if not set(map(type, entries)) <= {int}:
            for e in entries:
                _check_int(e)

    @classmethod
    def from_rows(cls, data, cols: int | None = None) -> "IntMatrix":
        """Build from a list of row lists; `cols` disambiguates empty shapes."""
        data = [list(row) for row in data]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = 0
        if cols is not None:
            if data and width != cols:
                raise ValueError(f"rows have width {width}, expected {cols}")
            width = cols
        return cls(len(data), width, tuple(x for row in data for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, diag, rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        """rows x cols matrix with `diag` on the main diagonal, zero elsewhere.

        Shape defaults to square of size len(diag).
        """
        diag = list(diag)
        if rows is None:
            rows = len(diag)
        if cols is None:
            cols = len(diag)
        if len(diag) > min(rows, cols):
            raise ValueError("diagonal longer than matrix")
        entries = [0] * (rows * cols)
        for k, d in enumerate(diag):
            entries[k * cols + k] = d
        return cls(rows, cols, tuple(entries))

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

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

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.row_list()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = a[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # Bareiss update: division by the previous pivot is exact.
                    a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = pivot
        return sign * a[n - 1][n - 1]


class SNFResult(Value):
    """Smith normal form data: left @ m @ right == diagonal(d), padded with zeros.

    `left` and `right` are unimodular (determinant ±1); `d` is the tuple of
    positive invariant factors, each dividing the next.
    """

    __slots__ = ("d", "left", "right")

    def __init__(self, d: tuple[int, ...], left: IntMatrix, right: IntMatrix):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        for i, x in enumerate(d):
            if x <= 0:
                raise ValueError("invariant factors must be positive")
            if i and d[i - 1] != 0 and x % d[i - 1] != 0:
                raise ValueError("invariant factors must form a divisibility chain")


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """Smith normal form with unimodular transforms.

    Runs the elimination of homology, `_eliminate`, on `m` bordered by
    identities: I_rows to the right of `m` and I_cols below it.  Only the
    block of `m` is diagonalised.  Its row operations act on the block rows
    over their full width, so the right-hand border becomes `left`.  Its
    column operations, which a row phase applies to the pivot row and to
    the rows below the block (column t being clear inside the block), turn
    the lower border into `right`.  So left @ m @ right == diag(d) exactly.

    >>> res = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> res.d
    (2, 4)
    """
    nrows, ncols = m.rows, m.cols
    a = m.row_list()
    for i, row in enumerate(a):
        row += [0] * nrows
        row[ncols + i] = 1
    for j in range(ncols):
        a.append([0] * ncols)
        a[-1][j] = 1
    d = _eliminate(a, nrows, ncols)
    return SNFResult(
        d=d,
        left=IntMatrix(nrows, nrows, tuple(chain.from_iterable(row[ncols:] for row in a[:nrows]))),
        right=IntMatrix(ncols, ncols, tuple(chain.from_iterable(a[nrows:]))),
    )


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
    """The invariant factors of `m`, i.e. `smith_normal_form(m).d`, without transforms.

    >>> _smith_factors(IntMatrix.from_rows([[2, 4], [6, 8]]))
    (2, 4)
    """
    return _eliminate(m.row_list(), m.rows, m.cols)


def _invariant_factors(orders) -> tuple[int, ...]:
    """Normalize a list of cyclic orders into an invariant-factor chain.

    This is the Smith form of the diagonal matrix of the orders, by pairwise
    gcd and lcm: Z/f + Z/n = Z/gcd(f, n) + Z/lcm(f, n).  Each order meets
    the chain built so far from its smallest factor up, leaving the gcd in
    place and carrying the lcm; no order is ever factored.

    >>> _invariant_factors([2, 3])
    (6,)
    >>> _invariant_factors([2, 4, 3])
    (2, 12)
    """
    chain: list[tuple[int, int]] = []  # (factor > 1, copies), each dividing the next
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
    return tuple(f for f, copies in chain for _ in range(copies))


class FinAbGroup(Value):
    """A finitely generated abelian group in canonical form.

    `free_rank` copies of Z plus cyclic factors Z/d with each torsion order
    dividing the next (invariant factors).  Construct with `of` to normalize
    arbitrary cyclic decompositions.

    >>> str(FinAbGroup.of(1, [2, 3]))
    'Z + Z/6'
    >>> FinAbGroup.of(0, [2, 4]) == FinAbGroup.of(0, [8])
    False
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        _check_int(free_rank)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        # Whole-chain passes, not a loop per order: (Z/2)^b with b in the
        # millions comes from `cstar --ko`
        if not set(map(type, torsion)) <= {int}:
            for d in torsion:
                _check_int(d)
        if min(torsion, default=2) < 2:
            raise ValueError("torsion orders must be >= 2")
        if any(map(mod, islice(torsion, 1, None), torsion)):
            raise ValueError("torsion orders must form a divisibility chain")

    @classmethod
    def zero(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    @classmethod
    def of(cls, free_rank: int, cyclic_orders=()) -> "FinAbGroup":
        """Normalize: drop order-1 factors, restore the divisibility chain."""
        return cls(free_rank, _invariant_factors(cyclic_orders))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        terms = []
        if self.free_rank == 1:
            terms.append("Z")
        elif self.free_rank > 1:
            terms.append(f"Z^{self.free_rank}")
        # The chain is nondecreasing, so the copies of one order form a run;
        # a run renders as one repeated string, not one string per factor.
        torsion, i = self.torsion, 0
        while i < len(torsion):
            end = bisect_right(torsion, torsion[i], i)
            term = f"Z/{torsion[i]}"
            terms.append(f"{term} + " * (end - i - 1) + term)
            i = end
        return " + ".join(terms) if terms else "0"

    __repr__ = __str__


def direct_sum(*groups: FinAbGroup) -> FinAbGroup:
    """Direct sum, renormalized to canonical form.

    >>> str(direct_sum(FinAbGroup.free(6), FinAbGroup.free(1)))
    'Z^7'
    """
    rank = sum(g.free_rank for g in groups)
    orders = [d for g in groups for d in g.torsion]
    return FinAbGroup.of(rank, orders)


def tensor_z2(g: FinAbGroup) -> FinAbGroup:
    """g ⊗ Z/2: one Z/2 per free generator and per even torsion factor.

    >>> str(tensor_z2(FinAbGroup.of(1, [3])))
    'Z/2'
    """
    count = g.free_rank + sum(1 for d in g.torsion if d % 2 == 0)
    return FinAbGroup.of(0, [2] * count)


def tor_z2(g: FinAbGroup) -> FinAbGroup:
    """Tor(g, Z/2): one Z/2 per even torsion factor; free parts contribute nothing."""
    count = sum(1 for d in g.torsion if d % 2 == 0)
    return FinAbGroup.of(0, [2] * count)


class IntChainComplex(Value):
    """A bounded chain complex of finitely generated free abelian groups.

    `ranks[i]` is the rank of the chain group in degree i; `boundaries[i]`
    is the matrix of the differential from degree i + 1 down to degree i
    (columns index the higher degree).  The composite of consecutive
    differentials must vanish; this is checked on construction.
    """

    __slots__ = ("ranks", "boundaries")

    def __init__(self, ranks: tuple[int, ...], boundaries: tuple[IntMatrix, ...]):
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "boundaries", boundaries)
        if not ranks:
            raise ChainComplexError("a chain complex needs at least one degree")
        if any(r < 0 for r in ranks):
            raise ChainComplexError("chain group ranks must be nonnegative")
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

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * r for i, r in enumerate(self.ranks))


def all_homology(c: IntChainComplex) -> list[FinAbGroup]:
    """Homology in every degree of the complex, degree 0 first.

    Each boundary is eliminated once; degree i reads the invariant factors of
    the boundaries out of and into it.  The image of the incoming
    differential sits inside the kernel of the outgoing one (saturated, since
    chain groups are free), so the torsion is exactly the incoming factors
    > 1 -- already a divisibility chain -- and the free rank is the chain
    rank minus the two matrix ranks.
    """
    factors = [()] + [_smith_factors(b) for b in c.boundaries] + [()]
    return [
        FinAbGroup(r - len(factors[i]) - len(factors[i + 1]),
                   tuple(d for d in factors[i + 1] if d > 1))
        for i, r in enumerate(c.ranks)
    ]
