"""The finite-group catalogue: stabiliser groups, conjugacy data, characters.

The groups that occur as cell stabilisers in the complexes we care about are
cyclic groups (the trivial group among them, as Z/1), the Klein group, the
dihedral groups of order 6, 8 and 12, the symmetric group on four letters,
and direct products of any of these with a central Z/2.  For each of them
we carry a concrete multiplication table, conjugacy classes in a fixed
order, and -- except for cyclic groups of order at least 3, whose characters
are not rational -- an integer character table.

Conjugacy classes are always listed identity first, then by increasing
element order, ties broken by class size and then by the smallest element
index.  Character-table columns follow that same order; rows start with the
trivial character.  Tables are validated at import of the corresponding
group by both orthogonality relations and the degree-sum identity, so a
corrupted entry cannot survive to a computation.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._value import Value


class UnsupportedGroupError(ValueError):
    """Raised for groups outside the catalogue or without an integer table."""


_KINDS = ("cyclic", "klein4", "dihedral", "sym4", "z2x")


class GroupId(Value):
    """Symbolic tag for a catalogue group.

    `m` is the order parameter for cyclic groups and the gonality for
    dihedral groups (the dihedral group D_n here has order 2n); the trivial
    group is the cyclic group with m = 1, named `1`.  `inner` is
    the other factor of a direct product with Z/2, at most one level deep
    and never one whose product has a tag of its own (`_own_product_tag`),
    so that each group has one tag.
    """

    __slots__ = ("kind", "m", "inner")

    def __init__(self, kind: str, m: int = 0, inner: "GroupId | None" = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "inner", inner)
        if kind not in _KINDS:
            raise UnsupportedGroupError(f"unknown group kind {kind!r}")
        if type(m) is not int:  # 2.0 == 2, but its name Z2.0 reads back as no group
            raise UnsupportedGroupError(f"group parameter must be an int, got {m!r}")
        if kind == "cyclic":
            if m < 1:
                raise UnsupportedGroupError("cyclic order must be >= 1")
        elif kind == "dihedral":
            if m not in (3, 4, 6):
                raise UnsupportedGroupError("dihedral parameter must be 3, 4 or 6")
        elif m != 0:
            raise UnsupportedGroupError(f"{kind} takes no integer parameter")
        if kind == "z2x":
            if inner is None:
                raise UnsupportedGroupError("product needs an inner factor")
            if inner.kind == "z2x":
                raise UnsupportedGroupError("products with Z/2 nest at most once")
            if _own_product_tag(inner) is not None:
                raise UnsupportedGroupError(
                    f"Z/2 x {inner.name()} has its own tag; build it with times_z2"
                )
        elif inner is not None:
            raise UnsupportedGroupError(f"{kind} takes no inner factor")

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls) -> "GroupId":
        return cls.cyclic(1)

    @classmethod
    @lru_cache(maxsize=None, typed=True)  # untyped, it keys 2.0 as 2 and True as 1
    def cyclic(cls, m: int) -> "GroupId":
        """Z/m.  One object per m, so a datum's identity-keyed checks see
        equal cones, and all trivial cells, as one."""
        return cls("cyclic", m)

    @classmethod
    def klein4(cls) -> "GroupId":
        return cls("klein4")

    @classmethod
    def dihedral(cls, n: int) -> "GroupId":
        return cls("dihedral", n)

    @classmethod
    def sym4(cls) -> "GroupId":
        return cls("sym4")

    @classmethod
    def times_z2(cls, inner: "GroupId") -> "GroupId":
        """Z/2 x inner, under the group's one tag (see `_own_product_tag`)."""
        own = _own_product_tag(inner)
        return cls("z2x", inner=inner) if own is None else own

    # -- basic attributes --------------------------------------------------

    def order(self) -> int:
        if self.kind == "cyclic":
            return self.m
        if self.kind == "klein4":
            return 4
        if self.kind == "dihedral":
            return 2 * self.m
        if self.kind == "sym4":
            return 24
        return 2 * self.inner.order()

    def name(self) -> str:
        """Render the reference name used in input files (`parse_name` inverts).

        >>> GroupId.dihedral(4).name()
        'D4'
        >>> GroupId.times_z2(GroupId.cyclic(8)).name()
        'Z2xZm(8)'
        """
        if self.kind == "cyclic":
            if self.m == 1:
                return "1"
            return f"Z{self.m}" if self.m in (2, 3, 4, 6) else f"Zm({self.m})"
        if self.kind == "klein4":
            return "Z2xZ2"
        if self.kind == "dihedral":
            return f"D{self.m}"
        if self.kind == "sym4":
            return "S4"
        return "Z2x" + self.inner.name()


def _own_product_tag(inner: GroupId) -> GroupId | None:
    """The tag of Z/2 x inner when that group has one outside the "z2x" kind:
    Z/2 x Z/m for odd m is Z/2m (so Z/2 x 1 is Z/2), Z/2 x Z/2 the Klein
    group and Z/2 x D3 is D6."""
    if inner.kind == "cyclic" and inner.m % 2:
        return GroupId.cyclic(2 * inner.m)
    if inner == GroupId.cyclic(2):
        return GroupId.klein4()
    if inner == GroupId.dihedral(3):
        return GroupId.dihedral(6)
    return None


def parse_name(text: str) -> GroupId:
    """Parse a group reference name.

    >>> parse_name("Z6") == GroupId.cyclic(6)
    True
    >>> parse_name("Z2xS4") == GroupId.times_z2(GroupId.sym4())
    True
    >>> parse_name("Z2xZm(2)") == GroupId.klein4()
    True
    >>> parse_name("Z2xD3") == GroupId.dihedral(6)
    True
    """
    text = text.strip()
    if text == "1":
        return GroupId.trivial()
    if text == "Z2xZ2":
        return GroupId.klein4()
    if text == "S4":
        return GroupId.sym4()
    if text in ("D3", "D4", "D6"):
        return GroupId.dihedral(int(text[1:]))
    if text.startswith("Z2x"):
        return GroupId.times_z2(parse_name(text[3:]))
    if text.startswith("Zm(") and text.endswith(")"):
        body = text[3:-1]
        # str.isdigit also accepts non-ASCII digits such as '²' and '٣'
        if not (body.isascii() and body.isdigit()):
            raise UnsupportedGroupError(f"bad cyclic order in {text!r}")
        try:
            order = int(body)
        except ValueError as exc:  # more digits than int() converts (3.11+)
            raise UnsupportedGroupError(f"bad cyclic order in {text!r}: {exc}") from exc
        return GroupId.cyclic(order)
    if text in ("Z2", "Z3", "Z4", "Z6"):
        return GroupId.cyclic(int(text[1:]))
    raise UnsupportedGroupError(f"unknown group name {text!r}")


# ---------------------------------------------------------------------------
# Concrete group structure


class FiniteGroupData(Value):
    """Multiplication table plus derived conjugacy data for a catalogue group.

    Elements are integers 0..order-1 with 0 the identity.  `classes` are
    tuples of element indices in the fixed catalogue order; `square_class[c]`
    is the index of the class containing the squares of class c.
    """

    __slots__ = ("order", "mult", "classes", "class_index", "square_class")

    def __init__(
        self,
        order: int,
        mult: tuple[tuple[int, ...], ...],
        classes: tuple[tuple[int, ...], ...],
        class_index: tuple[int, ...],
        square_class: tuple[int, ...],
    ):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "class_index", class_index)
        object.__setattr__(self, "square_class", square_class)


def _mult_table(gid: GroupId) -> list[list[int]]:
    if gid.kind == "cyclic":
        m = gid.m
        return [[(i + j) % m for j in range(m)] for i in range(m)]
    if gid.kind == "klein4":
        return [[i ^ j for j in range(4)] for i in range(4)]
    if gid.kind == "dihedral":
        # Element f*n + r acts on Z/n by x -> r + (-1)^f x; composition of
        # symmetries gives the table.
        n = gid.m

        def compose(g, h):
            fg, rg = divmod(g, n)
            fh, rh = divmod(h, n)
            return (fg ^ fh) * n + (rg + (rh if fg == 0 else -rh)) % n

        return [[compose(g, h) for h in range(2 * n)] for g in range(2 * n)]
    if gid.kind == "sym4":
        perms = list(itertools.permutations(range(4)))
        index = {p: i for i, p in enumerate(perms)}
        return [
            [index[tuple(p[q[x]] for x in range(4))] for q in perms] for p in perms
        ]
    # Product with a central Z/2: element a*2 + b encodes the pair (a, b).
    inner = _mult_table(gid.inner)
    k = len(inner)
    return [
        [inner[a1][a2] * 2 + (b1 ^ b2) for a2 in range(k) for b2 in range(2)]
        for a1 in range(k)
        for b1 in range(2)
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
    inverse = [0] * n
    for g in range(n):
        for h in range(n):
            if mult[g][h] == 0:
                inverse[g] = h
                break

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

    Cyclic groups are answered in closed form so that large cyclic
    stabilisers never force a table build.
    """
    if gid.kind == "cyclic":
        return gid.m
    if gid.kind == "z2x":
        return 2 * complex_irreducible_count(gid.inner)
    return len(build_group(gid).classes)


# ---------------------------------------------------------------------------
# Character tables

# Rows are irreducible characters (trivial first), columns are conjugacy
# classes in the catalogue order.  Only groups whose characters are all
# integer-valued appear here; cyclic groups of order >= 3 are handled
# symbolically, their character j by its index (`cyclic_fs_indicator`).

_BASE_TABLES: dict[tuple[str, int], tuple[tuple[int, ...], ...]] = {
    ("cyclic", 1): ((1,),),
    ("cyclic", 2): (
        (1, 1),
        (1, -1),
    ),
    # columns: e, (0,1), (1,0), (1,1)
    ("klein4", 0): (
        (1, 1, 1, 1),
        (1, -1, 1, -1),
        (1, 1, -1, -1),
        (1, -1, -1, 1),
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
    # columns: e, r^3, {s, sr^2, sr^4}, {sr, sr^3, sr^5}, {r^2, r^4}, {r, r^5}
    ("dihedral", 6): (
        (1, 1, 1, 1, 1, 1),
        (1, 1, -1, -1, 1, 1),
        (1, -1, 1, -1, 1, -1),
        (1, -1, -1, 1, 1, -1),
        (2, -2, 0, 0, -1, 1),
        (2, 2, 0, 0, -1, -1),
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
    if gid.kind == "cyclic":
        return gid.m <= 2
    if gid.kind == "z2x":
        return has_integer_table(gid.inner)
    return True


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

    Raises UnsupportedGroupError for cyclic groups of order >= 3 (and their
    Z/2-products): those characters are not integer-valued and are handled
    in closed form by `cyclic_fs_indicator`.
    """
    if not has_integer_table(gid):
        raise UnsupportedGroupError(
            f"{gid.name()} has no integer character table; "
            "cyclic characters are handled in closed form"
        )
    if gid.kind == "z2x":
        inner_rows = character_table(gid.inner)
        inner_g = build_group(gid.inner)
        z2_g = build_group(GroupId.cyclic(2))
        g = build_group(gid)
        # Locate, for each product class, the classes of the two coordinates
        # of its first element (element a*2 + b encodes the pair (a, b)).
        coords = []
        for cls in g.classes:
            a, b = divmod(cls[0], 2)
            coords.append((inner_g.class_index[a], z2_g.class_index[b]))
        z2_rows = _BASE_TABLES[("cyclic", 2)]
        rows = tuple(
            tuple(ri[ic] * rj[zc] for ic, zc in coords)
            for ri in inner_rows
            for rj in z2_rows
        )
    else:
        rows = _BASE_TABLES[(gid.kind, gid.m)]
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
    indicator 1, and decided that way: from the table and the power map for
    integer-table groups, from the closed-form indicator for cyclic groups
    (true exactly for orders 1 and 2), factorwise for products.
    """
    if gid.kind == "cyclic" and gid.m >= 3:
        return all(cyclic_fs_indicator(gid.m, j) == 1 for j in range(gid.m))
    if gid.kind == "z2x" and not has_integer_table(gid):
        # The Z/2 factor only tensors each character by a sign character,
        # which never changes an indicator.
        return all_tables_coincide(gid.inner)
    g = build_group(gid)
    return all(fs_indicator(g, row) == 1 for row in character_table(gid))
