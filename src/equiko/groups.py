"""The finite-group catalogue: stabiliser groups, conjugacy data, characters.

Every catalogue group is a base group times (Z/2)^k, the k factors central.
The bases are the cyclic groups (the trivial group among them, as Z/1), the
dihedral groups of order 6 and 8, and the symmetric group on four letters;
so the Klein group is Z/2 x Z/2 and the dihedral group of order 12 is
Z/2 x D3.  For each group we carry a concrete multiplication table,
conjugacy classes in a fixed order, and -- except for cyclic bases of order
at least 3, whose characters are not rational -- an integer character table.

Conjugacy classes are always listed identity first, then by increasing
element order, ties broken by class size and then by the smallest element
index.  Character-table columns follow that same order; rows start with the
trivial character.  Tables are validated on first use by both
orthogonality relations and the degree-sum identity, so a corrupted entry
cannot survive to a computation.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

from ._value import Value


class UnsupportedGroupError(ValueError):
    """Raised for groups outside the catalogue or without an integer table."""


_KINDS = ("cyclic", "dihedral", "sym4")


class GroupId(Value):
    """Symbolic tag for a catalogue group: a base group times (Z/2)^twos.

    `kind` and `m` name the base: the cyclic group Z/m (m >= 1; the trivial
    group is Z/1, named `1`), the dihedral group D_m of order 2m (m = 3 or
    4), or the symmetric group S4 (m = 0).  `twos` counts the central Z/2
    factors.  Each group has one tag: Z/2 x Z/m for odd m is Z/2m, so an
    odd cyclic base takes no Z/2 factor.  `kind` names the base only: a
    group is cyclic exactly when `kind == "cyclic" and twos == 0`.
    """

    __slots__ = ("kind", "m", "twos")

    def __init__(self, kind: str, m: int = 0, twos: int = 0):
        super().__init__(kind, m, twos)
        if kind not in _KINDS:
            raise UnsupportedGroupError(f"unknown group kind {kind!r}")
        for x in (m, twos):
            if type(x) is not int:  # 2.0 == 2, but its name Z2.0 reads back as no group
                raise UnsupportedGroupError(f"group parameter must be an int, got {x!r}")
        if twos < 0:
            raise UnsupportedGroupError("the number of Z/2 factors must be >= 0")
        if kind == "cyclic":
            if m < 1:
                raise UnsupportedGroupError("cyclic order must be >= 1")
            if twos and m % 2:
                raise UnsupportedGroupError(
                    f"Z/2 x Z/{m} is Z/{2 * m}; build it with times_z2"
                )
        elif kind == "dihedral":
            if m not in (3, 4):
                raise UnsupportedGroupError("dihedral parameter must be 3 or 4")
        elif m != 0:
            raise UnsupportedGroupError(f"{kind} takes no integer parameter")

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls) -> "GroupId":
        return cls.cyclic(1)

    @classmethod
    def cyclic(cls, m: int) -> "GroupId":
        """Z/m, a new tag equal to every other tag of Z/m."""
        return cls("cyclic", m)

    @classmethod
    def dihedral(cls, n: int) -> "GroupId":
        return cls("dihedral", n)

    @classmethod
    def sym4(cls) -> "GroupId":
        return cls("sym4")

    @classmethod
    def times_z2(cls, gid: "GroupId") -> "GroupId":
        """Z/2 x gid, under the group's one tag: Z/2m for an odd Z/m."""
        if gid.kind == "cyclic" and gid.m % 2:
            return cls.cyclic(2 * gid.m)
        return cls(gid.kind, gid.m, gid.twos + 1)

    # -- basic attributes --------------------------------------------------

    def order(self) -> int:
        kind = self.kind
        base = self.m if kind == "cyclic" else 2 * self.m if kind == "dihedral" else 24
        return base << self.twos

    def name(self) -> str:
        """Render the reference name used in input files (`parse_name` inverts):
        a `Z2x` prefix per Z/2 factor, except that Z/2 x D3 is `D6`.

        >>> GroupId.dihedral(4).name()
        'D4'
        >>> GroupId.times_z2(GroupId.cyclic(8)).name()
        'Z2xZm(8)'
        >>> GroupId("dihedral", 3, 2).name()
        'Z2xD6'
        """
        m, twos = self.m, self.twos
        if self.kind == "cyclic":
            base = "1" if m == 1 else f"Z{m}" if m in (2, 3, 4, 6) else f"Zm({m})"
        elif self.kind == "dihedral":
            base = f"D{m}"
            if m == 3 and twos:
                base, twos = "D6", twos - 1
        else:
            base = "S4"
        return "Z2x" * twos + base


#: The `Z2x` prefixes of a name, each followed by optional whitespace.
_PREFIXES_RE = re.compile(r"(?:Z2x\s*)*")


def parse_name(text: str) -> GroupId:
    """Parse a group reference name.

    >>> parse_name("Z6") == GroupId.cyclic(6)
    True
    >>> parse_name("Z2xS4") == GroupId.times_z2(GroupId.sym4())
    True
    >>> parse_name("Z2xZm(2)") == parse_name("Z2xZ2")
    True
    >>> parse_name("Z2xD3") == parse_name("D6")
    True
    """
    text = text.strip()
    prefixes = _PREFIXES_RE.match(text).end()
    twos = text.count("Z2x", 0, prefixes)
    text = text[prefixes:]
    if text == "1":
        gid = GroupId.trivial()
    elif text == "S4":
        gid = GroupId.sym4()
    elif text in ("D3", "D4"):
        gid = GroupId.dihedral(int(text[1:]))
    elif text == "D6":
        gid = GroupId("dihedral", 3, 1)
    elif text in ("Z2", "Z3", "Z4", "Z6"):
        gid = GroupId.cyclic(int(text[1:]))
    elif text.startswith("Zm(") and text.endswith(")"):
        body = text[3:-1]
        # str.isdigit also accepts non-ASCII digits such as '²' and '٣'
        if not (body.isascii() and body.isdigit()):
            raise UnsupportedGroupError(f"bad cyclic order in {text!r}")
        try:
            order = int(body)
        except ValueError as exc:  # more digits than int() converts (3.11+)
            raise UnsupportedGroupError(f"bad cyclic order in {text!r}: {exc}") from exc
        gid = GroupId.cyclic(order)
    else:
        raise UnsupportedGroupError(f"unknown group name {text!r}")
    if twos:  # only the first Z/2 can change the base (Z/m to Z/2m for odd m)
        gid = GroupId.times_z2(gid)
    return GroupId(gid.kind, gid.m, gid.twos + twos - 1) if twos > 1 else gid


# ---------------------------------------------------------------------------
# Concrete group structure


class FiniteGroupData(Value):
    """Multiplication table plus derived conjugacy data for a catalogue group.

    Elements are integers 0..order-1 with 0 the identity.  `classes` are
    tuples of element indices in the fixed catalogue order; `square_class[c]`
    is the index of the class containing the squares of class c.
    """

    __slots__ = ("order", "mult", "classes", "class_index", "square_class")


def _mult_table(gid: GroupId) -> list[list[int]]:
    n = gid.m
    if gid.kind == "cyclic":
        base = [[(i + j) % n for j in range(n)] for i in range(n)]
    elif gid.kind == "dihedral":
        # Element f*n + r acts on Z/n by x -> r + (-1)^f x; composition of
        # symmetries gives the table.
        def compose(g, h):
            fg, rg = divmod(g, n)
            fh, rh = divmod(h, n)
            return (fg ^ fh) * n + (rg + (rh if fg == 0 else -rh)) % n

        base = [[compose(g, h) for h in range(2 * n)] for g in range(2 * n)]
    else:
        perms = list(itertools.permutations(range(4)))
        index = {p: i for i, p in enumerate(perms)}
        base = [[index[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms]
    # The product with (Z/2)^twos: element a*2^twos + b encodes the pair
    # (a, b), b a bit vector that multiplies by xor.
    t, k = 1 << gid.twos, len(base)
    return [
        [base[a1][a2] * t + (b1 ^ b2) for a2 in range(k) for b2 in range(t)]
        for a1 in range(k)
        for b1 in range(t)
    ]


def _validate_table(mult: list[list[int]]) -> None:
    n = len(mult)
    rng = range(n)
    if any(len(row) != n for row in mult):
        raise UnsupportedGroupError("multiplication table is not square")
    for j in rng:
        if mult[0][j] != j or mult[j][0] != j:
            raise UnsupportedGroupError("element 0 is not an identity")
    for row in mult:
        if sorted(row) != list(rng):
            raise UnsupportedGroupError("a row is not a permutation")
    for j in rng:
        if sorted(mult[i][j] for i in rng) != list(rng):
            raise UnsupportedGroupError("a column is not a permutation")
    for a in rng:
        rowa = mult[a]
        for b in rng:
            # (ab)c == a(bc) for every c: row ab against row a read through row b
            if mult[rowa[b]] != [rowa[x] for x in mult[b]]:
                raise UnsupportedGroupError("associativity fails")


@lru_cache(maxsize=None)
def build_group(gid: GroupId) -> FiniteGroupData:
    """Construct and fully validate the concrete data for a catalogue group."""
    mult = _mult_table(gid)
    _validate_table(mult)
    n = len(mult)
    inverse = [row.index(0) for row in mult]

    element_order = [0] * n
    for g in range(n):
        k, x = 1, g
        while x != 0:
            x = mult[x][g]
            k += 1
        element_order[g] = k

    seen = [False] * n
    raw_classes = []
    for g in range(n):
        if seen[g]:
            continue
        cls = {mult[mult[h][g]][inverse[h]] for h in range(n)}
        for x in cls:
            seen[x] = True
        raw_classes.append(tuple(sorted(cls)))
    raw_classes.sort(key=lambda c: (element_order[c[0]], len(c), c[0]))

    class_index = [0] * n
    for ci, cls in enumerate(raw_classes):
        for x in cls:
            class_index[x] = ci
    square_class = tuple(class_index[mult[cls[0]][cls[0]]] for cls in raw_classes)

    return FiniteGroupData(
        order=n,
        mult=tuple(tuple(row) for row in mult),
        classes=tuple(raw_classes),
        class_index=tuple(class_index),
        square_class=square_class,
    )


def complex_irreducible_count(gid: GroupId) -> int:
    """Number of irreducible complex representations (= rank of R_C).

    The base's count doubles with each Z/2 factor.  Cyclic bases are
    answered in closed form so that large cyclic stabilisers never force a
    table build.
    """
    base = gid.m if gid.kind == "cyclic" else len(build_group(GroupId(gid.kind, gid.m)).classes)
    return base << gid.twos


# ---------------------------------------------------------------------------
# Character tables

# Rows are irreducible characters (trivial first), columns are conjugacy
# classes in the catalogue order.  Only bases whose characters are all
# integer-valued appear here; cyclic groups of order >= 3 are handled
# symbolically, their character j by its index (`cyclic_fs_indicator`).

_BASE_TABLES: dict[tuple[str, int], tuple[tuple[int, ...], ...]] = {
    ("cyclic", 1): ((1,),),
    ("cyclic", 2): (
        (1, 1),
        (1, -1),
    ),
    # columns: e, reflections, rotations
    ("dihedral", 3): (
        (1, 1, 1),
        (1, -1, 1),
        (2, 0, -1),
    ),
    # columns: e, r^2, {s, sr^2}, {sr, sr^3}, {r, r^3}
    ("dihedral", 4): (
        (1, 1, 1, 1, 1),
        (1, 1, -1, -1, 1),
        (1, 1, 1, -1, -1),
        (1, 1, -1, 1, -1),
        (2, -2, 0, 0, 0),
    ),
    # columns: e, double transpositions, transpositions, 3-cycles, 4-cycles
    ("sym4", 0): (
        (1, 1, 1, 1, 1),
        (1, 1, -1, 1, -1),
        (2, 2, 0, -1, 0),
        (3, -1, 1, 0, -1),
        (3, -1, -1, 0, 1),
    ),
}


def has_integer_table(gid: GroupId) -> bool:
    return gid.kind != "cyclic" or gid.m <= 2


def _validate_character_table(gid: GroupId, rows: tuple[tuple[int, ...], ...]) -> None:
    g = build_group(gid)
    k = len(g.classes)
    if len(rows) != k or any(len(row) != k for row in rows):
        raise UnsupportedGroupError(f"character table for {gid.name()} is not {k}x{k}")
    sizes = [len(c) for c in g.classes]
    order = g.order
    if any(row[0] <= 0 for row in rows):
        raise UnsupportedGroupError("character degrees must be positive")
    if sum(row[0] ** 2 for row in rows) != order:
        raise UnsupportedGroupError("degree-sum identity fails")
    for i in range(k):
        for j in range(i, k):
            dot = sum(s * a * b for s, a, b in zip(sizes, rows[i], rows[j]))
            if dot != (order if i == j else 0):
                raise UnsupportedGroupError("row orthogonality fails")
    for c1 in range(k):
        for c2 in range(c1, k):
            dot = sum(row[c1] * row[c2] for row in rows)
            expected = order // sizes[c1] if c1 == c2 else 0
            if dot != expected:
                raise UnsupportedGroupError("column orthogonality fails")


@lru_cache(maxsize=None)
def character_table(gid: GroupId) -> tuple[tuple[int, ...], ...]:
    """The integer character table of a catalogue group, validated on build:
    `rows[i][c]` is the i-th character on class c.

    The rows of a product are the base's rows times the 2^twos sign
    characters b -> (-1)^popcount(b & c) of (Z/2)^twos.  Raises
    UnsupportedGroupError for cyclic groups of order >= 3 (and their
    Z/2-products): those characters are not integer-valued and are handled
    in closed form by `cyclic_fs_indicator`.
    """
    if not has_integer_table(gid):
        raise UnsupportedGroupError(
            f"{gid.name()} has no integer character table; "
            "cyclic characters are handled in closed form"
        )
    rows = _BASE_TABLES[(gid.kind, gid.m)]
    if gid.twos:
        t = 1 << gid.twos
        base_classes = build_group(GroupId(gid.kind, gid.m)).class_index
        # the first element of each product class as the pair (a, b) it
        # encodes: a in the base, b the bit vector in (Z/2)^twos
        coords = [divmod(c[0], t) for c in build_group(gid).classes]
        rows = tuple(
            tuple(row[base_classes[a]] * (-1) ** (b & c).bit_count() for a, b in coords)
            for row in rows
            for c in range(t)
        )
    _validate_character_table(gid, rows)
    return rows


# ---------------------------------------------------------------------------
# Frobenius-Schur indicators


def fs_indicator(g: FiniteGroupData, chi) -> int:
    """Frobenius-Schur indicator of an integer character.

    Computed from the power map on conjugacy classes:
    (1/|G|) * sum over classes C of |C| * chi(class of squares of C).
    Raises if the sum is not divisible by the group order, which would mean
    `chi` is not a character of this group.
    """
    chi = tuple(chi)
    if len(chi) != len(g.classes):
        raise ValueError("character length does not match class count")
    total = sum(
        len(cls) * chi[g.square_class[ci]] for ci, cls in enumerate(g.classes)
    )
    if total % g.order != 0:
        raise ValueError("indicator is not an integer; not a character?")
    return total // g.order


def cyclic_fs_indicator(m: int, j: int) -> int:
    """Indicator of the character j of Z/m, g^k -> exp(2*pi*i*j*k/m): 1 when
    m divides 2j, else 0.

    Numeric character values never appear; the indicator is index arithmetic
    on j.  Summing the character over the squares g^(2k) gives m exactly
    when it kills every square, i.e. when 2j vanishes mod m; otherwise the
    sum of roots of unity is zero.  No value is ever -1: cyclic groups have
    no quaternionic characters.
    """
    if m < 1:
        raise ValueError("cyclic order must be >= 1")
    if not (0 <= j < m):
        raise ValueError("character index out of range")
    return 1 if (2 * j) % m == 0 else 0


def all_tables_coincide(gid: GroupId) -> bool:
    """Whether complex = real = quaternionic representation rings for `gid`.

    Equivalent to every irreducible character having Frobenius-Schur
    indicator 1, and decided that way on the base: the indicator is
    multiplicative over direct products and every character of a Z/2
    factor has indicator 1, so the Z/2 factors never change the answer.
    The base decides from the table and the power map when its table is
    integer, from the closed-form indicator when it is cyclic of order
    >= 3 (false then, as only orders 1 and 2 coincide).
    """
    if gid.kind == "cyclic" and gid.m >= 3:
        return all(cyclic_fs_indicator(gid.m, j) == 1 for j in range(gid.m))
    base = GroupId(gid.kind, gid.m)
    g = build_group(base)
    return all(fs_indicator(g, row) == 1 for row in character_table(base))
