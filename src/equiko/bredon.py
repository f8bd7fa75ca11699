"""Bredon homology of Gamma-CW complexes with representation-ring coefficients.

A `GammaCWDatum` records one cell per orbit as a pair `(label, stabiliser)`,
the stabiliser one of the catalogue groups, and, for every positive
dimension, either per-cell tuples of signed terms `(sign, target, spec)`
describing how each cell's boundary hits lower cells through catalogued
inductions, or a raw integer matrix.
`expand` turns this into an honest integer chain complex: the chain group in
degree n is the direct sum of the complex representation rings of the
n-cell stabilisers, and each boundary block is sign * (induction matrix).
Homology is then Smith-normal-form arithmetic, never a table lookup.

Two families of data are built here:

* the 4-dimensional complex for SL_3(Z), whose boundaries are stored in a
  unimodularly equivalent normal form (`snf_equivalent=True`) -- pivot
  blocks of ranks 18, 10, 1 with unit invariant factors;
* Fuchsian data: a fundamental polygon for a cocompact signature, a graph
  of groups for a finite-covolume one, and the graphs' central Z/2
  extensions (free stabilisers lift to Z/2, cone stabilisers Z/m to Z/2m,
  every edge carrying the same central Z/2).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat

from ._value import Value
from .exactlinalg import FinAbGroup, IntChainComplex, IntMatrix, all_homology
from .fuchsian import Signature
from .groups import GroupId, UnsupportedGroupError, complex_irreducible_count, parse_name


class DatumError(ValueError):
    """Raised when Gamma-CW data is internally inconsistent."""


# The boundary out of one dimension: a raw matrix on the chain groups, or one
# tuple of terms (sign, target, spec) per cell, aligned with the cell order.
Boundary = IntMatrix | tuple[tuple[tuple[int, str, str], ...], ...]


# The grammar of a datum: what `cwfile.format_cw` writes, `parse_cw` reads
# back unchanged.  The constructor refuses anything else.


def _one_line(text) -> bool:
    # a str without outer whitespace or a line break (any separator that
    # str.splitlines splits on; each of them is also whitespace)
    return isinstance(text, str) and text == text.strip() and len(text.splitlines()) <= 1


def are_cell_labels(labels) -> bool:
    """Whether every label in a collection is an ASCII identifier,
    `[A-Za-z_][A-Za-z0-9_]*`.

    Two C-level passes, whatever the count: `join` refuses a label that is
    not a str, and the joined text knows whether it is ASCII.
    """
    try:
        joined = "".join(labels)
    except TypeError:
        return False
    return joined.isascii() and all(map(str.isidentifier, labels))


@lru_cache(maxsize=256)
def parse_induction_spec(spec: str) -> tuple[str, GroupId | None, GroupId | None]:
    """Split an induction spec into (kind, source, target).

    Kinds: "id"; "cyclic" (induction along a cyclic inclusion, where the
    source "triv" names the trivial group).  A spec is one line without
    outer whitespace.  Results are memoized on the spec string; a malformed
    spec raises `DatumError` on every call.
    """
    if not _one_line(spec):
        raise DatumError(f"malformed induction spec {spec!r}")
    if spec == "id":
        return ("id", None, None)
    if "->" in spec:
        left, right = (part.strip() for part in spec.split("->", 1))
        try:
            target = parse_name(right)
            if target.kind != "cyclic" or target.twos:
                raise DatumError(f"induction target in {spec!r} must be cyclic")
            source = GroupId.trivial() if left == "triv" else parse_name(left)
        except UnsupportedGroupError as exc:
            raise DatumError(str(exc)) from exc
        if source.kind != "cyclic" or source.twos:
            raise DatumError(f"induction source in {spec!r} must be cyclic")
        return ("cyclic", source, target)
    raise DatumError(f"malformed induction spec {spec!r}")


def _check_spec(spec: str, source: GroupId, target: GroupId) -> None:
    """Check an induction spec against the stabilisers it connects."""
    kind, spec_source, spec_target = parse_induction_spec(spec)
    if kind == "id":
        if source != target:
            raise DatumError(
                f"'id' between different stabilisers {source.name()} and {target.name()}"
            )
        return
    if spec_target != target:
        raise DatumError(
            f"spec {spec!r} targets {spec_target.name()} but the cell has "
            f"stabiliser {target.name()}"
        )
    if spec_source != source:
        raise DatumError(
            f"spec {spec!r} starts at {spec_source.name()} but the cell has "
            f"stabiliser {source.name()}"
        )
    if target.order() % source.order() != 0:
        raise DatumError(f"spec {spec!r} is not a subgroup inclusion")


class GammaCWDatum(Value):
    """A finite Gamma-CW structure with catalogue stabilisers.

    `cells[n]` lists the n-cells as pairs (label, stabiliser);
    `boundaries[n-1]` describes the boundary map out of dimension n: a raw
    matrix when dimensions n-1 and n both have cells, or per cell a tuple of
    terms (sign, target label, spec).  Data whose boundaries are only
    unimodularly equivalent to the geometric ones is flagged
    `snf_equivalent`; homology is unaffected.

    The constructor accepts only what a Gamma-CW file carries, so
    `parse_cw(format_cw(d)) == d` for every datum: the name is a str of one
    line without `#` or outer whitespace; labels are ASCII identifiers;
    specs are one line without outer whitespace; stabilisers are `GroupId`s,
    `snf_equivalent` a bool, and every container a tuple (not a subclass).
    """

    __slots__ = ("name", "cells", "boundaries", "snf_equivalent")

    def __init__(self, name: str, cells: tuple[tuple[tuple[str, GroupId], ...], ...],
                 boundaries: tuple[Boundary, ...], snf_equivalent: bool = False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "snf_equivalent", snf_equivalent)
        self.__post_init__()

    def __post_init__(self):
        # validation; `bench/tracer.py` times it by wrapping this name
        if not _one_line(self.name) or "#" in self.name:
            raise DatumError(f"datum name {self.name!r} must be one line "
                             "without '#' or outer whitespace")
        if not isinstance(self.snf_equivalent, bool):
            raise DatumError(f"snf_equivalent must be a bool, got {self.snf_equivalent!r}")
        if not (type(self.cells) is tuple and type(self.boundaries) is tuple):
            raise DatumError("cells and boundaries must be tuples")
        if not self.cells:
            raise DatumError("a datum needs at least dimension 0")
        if len(self.boundaries) != len(self.cells) - 1:
            raise DatumError(
                f"expected {len(self.cells) - 1} boundary descriptions, "
                f"got {len(self.boundaries)}"
            )
        by_label = []  # per dimension, label -> stabiliser
        for dim, layer in enumerate(self.cells):
            # whole-layer passes in C: on the 43,372 cells of the Gamma_0(p)
            # data for p up to 1900 they add ~6 ms, a loop over cells ~10 ms
            try:  # dict() also refuses items that are not pairs, and unhashable labels
                if not (type(layer) is tuple and set(map(type, layer)) <= {tuple}):
                    raise TypeError
                stabilisers = dict(layer)
            except (TypeError, ValueError):
                raise DatumError(
                    f"the {dim}-cells must be a tuple of (label, GroupId) pairs") from None
            by_label.append(stabilisers)
            if len(stabilisers) != len(layer):
                raise DatumError(f"duplicate cell labels in dimension {dim}")
            if not are_cell_labels(stabilisers):
                bad = next(label for label in stabilisers if not are_cell_labels((label,)))
                raise DatumError(f"bad cell label {bad!r}")
            if not set(map(type, stabilisers.values())) <= {GroupId}:
                bad = next(g for g in stabilisers.values() if type(g) is not GroupId)
                raise DatumError(f"the stabiliser of a {dim}-cell is {bad!r}, not a GroupId")
        for n, b in enumerate(self.boundaries, start=1):
            if isinstance(b, IntMatrix):
                if not (self.cells[n - 1] and self.cells[n]):
                    raise DatumError(f"the boundary out of dimension {n} is zero, as dimension "
                                     f"{n - 1} or {n} has no cells; give it as term lists")
                rows = sum(complex_irreducible_count(g) for _, g in self.cells[n - 1])
                cols = sum(complex_irreducible_count(g) for _, g in self.cells[n])
                if (b.rows, b.cols) != (rows, cols):
                    raise DatumError(
                        f"matrix for the boundary out of dimension {n} is "
                        f"{b.rows}x{b.cols}, expected {rows}x{cols}"
                    )
                continue
            if type(b) is not tuple:
                raise DatumError(f"the boundary out of dimension {n} must be an "
                                 "IntMatrix or a tuple of term tuples")
            if len(b) != len(self.cells[n]):
                raise DatumError(
                    f"dimension {n} has {len(self.cells[n])} cells but "
                    f"{len(b)} term lists"
                )
            below = by_label[n - 1]
            # A cell's terms are checked against its stabiliser and the
            # stabilisers they hit, so cells sharing one terms tuple and one
            # source (every loop of a Fuchsian graph) are checked once, and
            # within those each distinct spec triple once.  Keying on object
            # identity spares hashing tuples and GroupIds per cell; equal but
            # distinct objects are merely checked again.
            seen = set()
            checked = set()
            for (label, source), terms in zip(self.cells[n], b):
                pair = (id(terms), id(source))
                if pair in seen:
                    continue
                seen.add(pair)
                if not (type(terms) is tuple
                        and all(type(t) is tuple and len(t) == 3 for t in terms)):
                    raise DatumError(f"the boundary of {label!r} must be a tuple of "
                                     f"(sign, target, spec) tuples, got {terms!r}")
                for sign, target_label, spec in terms:
                    if sign not in (1, -1):
                        raise DatumError(f"boundary coefficients must be +1 or -1, got {sign}")
                    target = below.get(target_label)
                    if target is None:
                        raise DatumError(
                            f"boundary of {label!r} hits unknown "
                            f"{n - 1}-cell {target_label!r}"
                        )
                    key = (spec, id(source), id(target))
                    if key not in checked:
                        _check_spec(spec, source, target)
                        checked.add(key)

    def stabilisers(self) -> list[GroupId]:
        """All stabilisers, deduplicated, in order of first appearance."""
        return list(dict.fromkeys(gid for layer in self.cells for _, gid in layer))


def expand(datum: GammaCWDatum) -> IntChainComplex:
    """Expand a datum into the integer chain complex of representation rings.

    A term `sign * target : spec` induces from the cell's stabiliser, with
    d irreducibles, to the target's, with m.  Every catalogued induction
    (`id`, `triv->Zm`, `Zd->Zm`) is one rule: by Frobenius reciprocity the
    character j goes to the characters j, j + d, j + 2d, ... of the target.
    So the term adds `sign` at row `row_off + k`, column `col_off + j` for
    every k = j (mod d), where the offsets place the two cells in their
    chain groups.  Shapes, targets and specs were checked when the datum was
    built.

    >>> datum = GammaCWDatum(
    ...     "edge", ((("v", GroupId.cyclic(6)),), (("e", GroupId.cyclic(2)),)),
    ...     ((((1, "v", "Z2->Z6"),),),))
    >>> expand(datum).boundaries[0].row_list()
    [[1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1]]
    """
    cell_ranks = [[complex_irreducible_count(gid) for _, gid in layer] for layer in datum.cells]
    ranks = [sum(layer_ranks) for layer_ranks in cell_ranks]

    matrices = []
    for n, b in enumerate(datum.boundaries, start=1):
        if isinstance(b, IntMatrix):
            matrices.append(b)
            continue
        rows, cols = ranks[n - 1], ranks[n]
        below: dict[str, tuple[int, int]] = {}  # label -> (row offset, rank)
        pos = 0
        for (label, _), m in zip(datum.cells[n - 1], cell_ranks[n - 1]):
            below[label] = (pos, m)
            pos += m
        # Cells with one terms tuple and one rank (every loop of a Fuchsian
        # graph) add the same column pattern at their own column offset, so
        # each pattern is summed once: (position in the column, nonzero sum).
        patterns: dict[tuple[int, int], list[tuple[int, int]]] = {}
        entries = [0] * (rows * cols)
        col_off = 0
        for terms, d in zip(b, cell_ranks[n]):
            pattern = patterns.get((id(terms), d))
            if pattern is None:
                sums: dict[int, int] = {}
                for sign, target, _ in terms:
                    row_off, m = below[target]
                    for j in range(d):
                        for k in range(j, m, d):
                            at = (row_off + k) * cols + j
                            sums[at] = sums.get(at, 0) + sign
                pattern = patterns[id(terms), d] = [(at, x) for at, x in sums.items() if x]
            for at, x in pattern:
                entries[at + col_off] += x
            col_off += d
        matrices.append(IntMatrix(rows, cols, tuple(entries)))
    return IntChainComplex(tuple(ranks), tuple(matrices))


def bredon_homology(datum: GammaCWDatum) -> list[FinAbGroup]:
    """Bredon homology in every degree of the datum, from the invariant factors
    of each boundary (one transform-free elimination per boundary)."""
    return all_homology(expand(datum))


# ---------------------------------------------------------------------------
# The SL_3(Z) complex

_SL3_VERTEX_STABILISERS = ("S4", "D6", "S4", "D4", "S4")
_SL3_EDGE_STABILISERS = ("Z2xZ2", "D3", "D3", "Z2", "Z2", "Z2xZ2", "D4", "D4")
_SL3_FACE_STABILISERS = ("Z2", "1", "Z2xZ2", "Z2", "Z2")


def _pivot_block(rows: int, cols: int, count: int, row_offset: int = 0) -> IntMatrix:
    entries = [0] * (rows * cols)
    for i in range(count):
        entries[(row_offset + i) * cols + i] = 1
    return IntMatrix(rows, cols, tuple(entries))


@lru_cache(maxsize=1)
def sl3_datum() -> GammaCWDatum:
    """The Gamma-CW datum for SL_3(Z) acting on its classifying space.

    Five vertices, eight edges, five 2-cells and one 3-cell modulo SL_3(Z);
    chain ranks 26, 28, 11, 1.  The boundary matrices are stored in the
    unimodularly equivalent normal form (rank-18, rank-10 and rank-1 unit
    pivot blocks), so homology computed from them by Smith normal form is
    the homology of the geometric complex.
    """
    cells = (
        tuple((f"v{i + 1}", parse_name(s)) for i, s in enumerate(_SL3_VERTEX_STABILISERS)),
        tuple((f"e{i + 1}", parse_name(s)) for i, s in enumerate(_SL3_EDGE_STABILISERS)),
        tuple((f"t{i + 1}", parse_name(s)) for i, s in enumerate(_SL3_FACE_STABILISERS)),
        (("T1", GroupId.trivial()),),
    )
    # Degree ranks: 26 <- 28 <- 11 <- 1.  The boundary out of dimension 1
    # has rank 18 (unit pivots in the first 18 rows); the boundary out of
    # dimension 2 has rank 10, supported on the complementary 10 rows; the
    # 3-cell hits the leftover 2-chain coordinate.
    d1 = _pivot_block(26, 28, 18)
    d2 = _pivot_block(28, 11, 10, row_offset=18)
    d3 = _pivot_block(11, 1, 1, row_offset=10)
    return GammaCWDatum("sl3", cells, (d1, d2, d3), snf_equivalent=True)


# ---------------------------------------------------------------------------
# Fuchsian data


class GraphOfGroupsDatum(Value):
    """A finite graph of catalogue groups: the one-dimensional `GammaCWDatum`
    whose 0-cells are the `vertices`, pairs (label, group), and whose 1-cells
    are the edges (label, group, head, tail) with the terms (+1, *head) and
    (-1, *tail), each end a pair (vertex label, induction spec).  That datum's
    constructor checks the graph.  Nothing in equiko builds one; the class
    stays while `bench/tracer.py` wraps its `__post_init__`.
    """

    __slots__ = ("name", "vertices", "edges")

    def __init__(self, name: str, vertices: tuple[tuple[str, GroupId], ...],
                 edges: tuple[tuple[str, GroupId, tuple[str, str], tuple[str, str]], ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        self.__post_init__()

    def __post_init__(self):
        # validation; `bench/tracer.py` times it by wrapping this name
        if not (type(self.edges) is tuple and all(type(e) is tuple and len(e) == 4
                and type(e[2]) is type(e[3]) is tuple for e in self.edges)):
            raise DatumError("the edges must be a tuple of (label, group, head, tail) tuples")
        GammaCWDatum(self.name, (self.vertices, tuple(edge[:2] for edge in self.edges)),
                     (tuple(((1, *head), (-1, *tail)) for _, _, head, tail in self.edges),))


# Every loop at z is bounded by z - z through the identity; all loops share it.
_LOOP_TERMS = ((1, "z", "id"), (-1, "z", "id"))


def _fuchsian_graph(loops: int, free: GroupId, cones: list[GroupId], via: str):
    # (vertices, edges, edge terms): a vertex z with group `free` carrying
    # `loops` loops, and one pendant edge with group `free` from z into each
    # cone vertex, embedded there by the spec `via->cone`.
    vertices = (("z", free),)
    vertices += tuple((f"p{j + 1}", cone) for j, cone in enumerate(cones))
    edges = tuple(zip([f"l{i + 1}" for i in range(loops)], repeat(free)))
    edges += tuple((f"d{j + 1}", free) for j in range(len(cones)))
    terms = (_LOOP_TERMS,) * loops + tuple(
        ((1, f"p{j + 1}", f"{via}->{cone.name()}"), _LOOP_TERMS[1])
        for j, cone in enumerate(cones)
    )
    return vertices, edges, terms


def fuchsian_datum(sig: Signature) -> GammaCWDatum:
    """The datum of a Fuchsian signature [g, s; m_1..m_r].

    One free vertex carrying 2g + s - 1 loops (2g when s = 0), plus one
    pendant edge from it into each cone vertex Z/m_j.  A cocompact signature
    adds a single free 2-cell whose polygon boundary traverses every edge
    twice with opposite orientations, so its chain boundary cancels to zero
    term by term.
    """
    trivial = GroupId.trivial()
    cones = [GroupId.cyclic(m) for m in sig.periods]
    loops = 2 * sig.g + max(sig.s - 1, 0)
    vertices, edges, terms = _fuchsian_graph(loops, trivial, cones, "triv")
    if sig.s:
        return GammaCWDatum(f"fuchsian{sig}", (vertices, edges), (terms,))
    face = tuple((sign, label, "id") for label, _ in edges for sign in (1, -1))
    return GammaCWDatum(
        f"fuchsian{sig}", (vertices, edges, (("w", trivial),)), (terms, (face,))
    )


def lifted_fuchsian_datum(sig: Signature) -> GammaCWDatum:
    """Central Z/2 extension of a finite-covolume signature with periods in {2,3}.

    Free stabilisers lift to Z/2, cone stabilisers Z/m to Z/2m, and every
    edge group is the same central Z/2, embedded by the catalogued cyclic
    inductions.  Chain-level homology then doubles every rank of the base
    and stays torsion-free.
    """
    if sig.is_cocompact():
        raise DatumError("the central extension datum needs s >= 1")
    if any(m not in (2, 3) for m in sig.periods):
        raise DatumError("lift is only defined for periods 2 and 3")
    cones = [GroupId.cyclic(2 * m) for m in sig.periods]
    loops = 2 * sig.g + sig.s - 1
    vertices, edges, terms = _fuchsian_graph(loops, GroupId.cyclic(2), cones, "Z2")
    return GammaCWDatum(f"lift{sig}", (vertices, edges), (terms,))
