"""Bredon homology of Gamma-CW complexes with representation-ring coefficients.

A `GammaCWDatum` records one cell per orbit together with its stabiliser
(one of the catalogue groups) and, for every positive dimension, either
per-cell tuples of signed terms describing how each cell's boundary hits
lower cells through catalogued inductions, or a raw integer matrix.
`expand` turns this into an honest integer chain complex: the chain group in
degree n is the direct sum of the complex representation rings of the
n-cell stabilisers, and each boundary block is sign * (induction matrix).
Homology is then Smith-normal-form arithmetic, never a table lookup.

Three families of data are built here:

* the 4-dimensional complex for SL_3(Z), whose boundaries are stored in a
  unimodularly equivalent normal form (`snf_equivalent=True`) -- pivot
  blocks of ranks 18, 10, 1 with unit invariant factors;
* fundamental-polygon complexes for cocompact Fuchsian signatures;
* graphs of groups for finite-covolume signatures, and their central Z/2
  extensions (free stabilisers lift to Z/2, cone stabilisers Z/m to Z/2m,
  every edge carrying the same central Z/2).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import repeat

from ._value import Value
from .exactlinalg import FinAbGroup, IntChainComplex, IntMatrix, all_homology
from .fuchsian import Signature
from .groups import GroupId, complex_irreducible_count, parse_name


class DatumError(ValueError):
    """Raised when Gamma-CW data is internally inconsistent."""


class Cell(Value):
    """One orbit of cells: a label and the stabiliser of a representative."""

    __slots__ = ("label", "stabiliser")

    def __init__(self, label: str, stabiliser: GroupId):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "stabiliser", stabiliser)

    def rank(self) -> int:
        return complex_irreducible_count(self.stabiliser)

    @classmethod
    def orbits(cls, labels: list[str], stabiliser: GroupId) -> tuple["Cell", ...]:
        """`tuple(Cell(label, stabiliser) for label in labels)`, with the
        fields set by C-level loops instead of one `__init__` call per cell:
        a Fuchsian graph has a loop cell per generator, ~p/6 for Gamma_0(p).
        """
        cells = tuple(map(object.__new__, repeat(cls, len(labels))))
        deque(map(cls.label.__set__, cells, labels), maxlen=0)
        deque(map(cls.stabiliser.__set__, cells, repeat(stabiliser)), maxlen=0)
        return cells


class BoundaryTerm(Value):
    """One signed summand `sign * target : spec` of a cell boundary."""

    __slots__ = ("sign", "target", "spec")

    def __init__(self, sign: int, target: str, spec: str):
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "spec", spec)
        if sign not in (1, -1):
            raise DatumError(f"boundary coefficients must be +1 or -1, got {sign}")


# The boundary out of one dimension: a raw matrix on the chain groups, or one
# tuple of terms per cell, aligned with the cell order.
Boundary = IntMatrix | tuple[tuple[BoundaryTerm, ...], ...]


def _cyclic_or_trivial(gid: GroupId) -> bool:
    # the trivial group is Z/1 and may stand on either side of an induction
    return gid.kind in ("cyclic", "trivial")


@lru_cache(maxsize=256)
def parse_induction_spec(spec: str) -> tuple[str, GroupId | None, GroupId | None]:
    """Split an induction spec into (kind, source, target).

    Kinds: "id"; "cyclic" (induction along a cyclic inclusion, where the
    source "triv" names the trivial group).  Results are memoized on the
    spec string; a malformed spec raises on every call.
    """
    spec = spec.strip()
    if spec == "id":
        return ("id", None, None)
    if "->" in spec:
        left, right = (part.strip() for part in spec.split("->", 1))
        target = parse_name(right)
        if not _cyclic_or_trivial(target):
            raise DatumError(f"induction target in {spec!r} must be cyclic")
        source = GroupId.trivial() if left == "triv" else parse_name(left)
        if not _cyclic_or_trivial(source):
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

    `cells[n]` lists the n-cells; `boundaries[n-1]` describes the boundary
    map out of dimension n (per-cell term tuples or a raw matrix).  Data
    whose boundaries are only unimodularly equivalent to the geometric ones
    is flagged `snf_equivalent`; homology is unaffected.
    """

    __slots__ = ("name", "cells", "boundaries", "snf_equivalent")

    def __init__(self, name: str, cells: tuple[tuple[Cell, ...], ...],
                 boundaries: tuple[Boundary, ...], snf_equivalent: bool = False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "boundaries", boundaries)
        object.__setattr__(self, "snf_equivalent", snf_equivalent)
        self.__post_init__()

    def __post_init__(self):
        # validation; `bench/tracer.py` times it by wrapping this name
        if not self.cells:
            raise DatumError("a datum needs at least dimension 0")
        if len(self.boundaries) != len(self.cells) - 1:
            raise DatumError(
                f"expected {len(self.cells) - 1} boundary descriptions, "
                f"got {len(self.boundaries)}"
            )
        for dim, layer in enumerate(self.cells):
            labels = [c.label for c in layer]
            if len(set(labels)) != len(labels):
                raise DatumError(f"duplicate cell labels in dimension {dim}")
        for n, b in enumerate(self.boundaries, start=1):
            if isinstance(b, IntMatrix):
                rows = sum(c.rank() for c in self.cells[n - 1])
                cols = sum(c.rank() for c in self.cells[n])
                if (b.rows, b.cols) != (rows, cols):
                    raise DatumError(
                        f"matrix for the boundary out of dimension {n} is "
                        f"{b.rows}x{b.cols}, expected {rows}x{cols}"
                    )
                continue
            if len(b) != len(self.cells[n]):
                raise DatumError(
                    f"dimension {n} has {len(self.cells[n])} cells but "
                    f"{len(b)} term lists"
                )
            below = {c.label: c.stabiliser for c in self.cells[n - 1]}
            # A cell's terms are checked against its stabiliser and the
            # stabilisers they hit, so cells sharing one terms tuple and one
            # source (every loop of a Fuchsian graph) are checked once, and
            # within those each distinct spec triple once.  Keying on object
            # identity spares hashing tuples and GroupIds per cell; equal but
            # distinct objects are merely checked again.
            seen = set()
            checked = set()
            for cell, terms in zip(self.cells[n], b):
                source = cell.stabiliser
                pair = (id(terms), id(source))
                if pair in seen:
                    continue
                seen.add(pair)
                for term in terms:
                    target = below.get(term.target)
                    if target is None:
                        raise DatumError(
                            f"boundary of {cell.label!r} hits unknown "
                            f"{n - 1}-cell {term.target!r}"
                        )
                    key = (term.spec, id(source), id(target))
                    if key not in checked:
                        _check_spec(term.spec, source, target)
                        checked.add(key)

    @classmethod
    def build(cls, name, cells, boundaries, snf_equivalent=False) -> "GammaCWDatum":
        """Friendly constructor.

        `cells`: list (by dimension) of [(label, GroupId), ...].
        `boundaries`: dict dimension -> either {label: [(sign, target, spec), ...]}
        or an IntMatrix.
        """
        cell_layers = tuple(
            tuple(Cell(label, gid) for label, gid in layer) for layer in cells
        )
        packed = []
        for n in range(1, len(cell_layers)):
            raw = boundaries.get(n)
            if isinstance(raw, IntMatrix):
                packed.append(raw)
                continue
            raw = raw or {}
            unknown = set(raw) - {c.label for c in cell_layers[n]}
            if unknown:
                raise DatumError(
                    f"boundary given for unknown {n}-cells {sorted(unknown)}"
                )
            packed.append(
                tuple(
                    tuple(BoundaryTerm(*t) for t in raw.get(c.label, ()))
                    for c in cell_layers[n]
                )
            )
        return cls(name, cell_layers, tuple(packed), snf_equivalent)

    def stabilisers(self) -> list[GroupId]:
        """All stabilisers, deduplicated, in order of first appearance."""
        seen: list[GroupId] = []
        for layer in self.cells:
            for c in layer:
                if c.stabiliser not in seen:
                    seen.append(c.stabiliser)
        return seen


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

    >>> datum = GammaCWDatum.build(
    ...     "edge", [[("v", GroupId.cyclic(6))], [("e", GroupId.cyclic(2))]],
    ...     {1: {"e": [(1, "v", "Z2->Z6")]}})
    >>> expand(datum).boundaries[0].row_list()
    [[1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1]]
    """
    rank_of: dict[int, int] = {}  # id(stabiliser) -> rank, read once per object
    cell_ranks = []
    for layer in datum.cells:
        layer_ranks = []
        for c in layer:
            rank = rank_of.get(id(c.stabiliser))
            if rank is None:
                rank = rank_of[id(c.stabiliser)] = c.rank()
            layer_ranks.append(rank)
        cell_ranks.append(layer_ranks)
    ranks = [sum(layer_ranks) for layer_ranks in cell_ranks]

    matrices = []
    for n, b in enumerate(datum.boundaries, start=1):
        if isinstance(b, IntMatrix):
            matrices.append(b)
            continue
        rows, cols = ranks[n - 1], ranks[n]
        below: dict[str, tuple[int, int]] = {}  # label -> (row offset, rank)
        pos = 0
        for c, m in zip(datum.cells[n - 1], cell_ranks[n - 1]):
            below[c.label] = (pos, m)
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
                for term in terms:
                    row_off, m = below[term.target]
                    for j in range(d):
                        for k in range(j, m, d):
                            at = (row_off + k) * cols + j
                            sums[at] = sums.get(at, 0) + term.sign
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

    Five orbits of vertices, eight of edges, five of 2-cells and one 3-cell;
    chain ranks 26, 28, 11, 1.  The boundary matrices are stored in the
    unimodularly equivalent normal form (rank-18, rank-10 and rank-1 unit
    pivot blocks), so homology computed from them by Smith normal form is
    the homology of the geometric complex.
    """
    cells = [
        [(f"v{i + 1}", parse_name(s)) for i, s in enumerate(_SL3_VERTEX_STABILISERS)],
        [(f"e{i + 1}", parse_name(s)) for i, s in enumerate(_SL3_EDGE_STABILISERS)],
        [(f"t{i + 1}", parse_name(s)) for i, s in enumerate(_SL3_FACE_STABILISERS)],
        [("T1", GroupId.trivial())],
    ]
    # Degree ranks: 26 <- 28 <- 11 <- 1.  The boundary out of dimension 1
    # has rank 18 (unit pivots in the first 18 rows); the boundary out of
    # dimension 2 has rank 10, supported on the complementary 10 rows; the
    # 3-cell hits the leftover 2-chain coordinate.
    d1 = _pivot_block(26, 28, 18)
    d2 = _pivot_block(28, 11, 10, row_offset=18)
    d3 = _pivot_block(11, 1, 1, row_offset=10)
    return GammaCWDatum.build(
        "sl3", cells, {1: d1, 2: d2, 3: d3}, snf_equivalent=True
    )


# ---------------------------------------------------------------------------
# Fuchsian data


class GraphEdge(Value):
    """An edge of a graph of groups; `head` gets +1, `tail` gets -1.

    Each endpoint is (vertex label, induction spec) for the embedding of the
    edge group into that vertex group.
    """

    __slots__ = ("label", "group", "head", "tail")

    def __init__(self, label: str, group: GroupId, head: tuple[str, str],
                 tail: tuple[str, str]):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)


class GraphOfGroupsDatum(Value):
    """A finite graph of catalogue groups, expandable as a 1-dimensional datum."""

    __slots__ = ("name", "vertices", "edges")

    def __init__(self, name: str, vertices: tuple[Cell, ...], edges: tuple[GraphEdge, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        self.__post_init__()

    def __post_init__(self):
        # validation; `bench/tracer.py` times it by wrapping this name
        by_label = {v.label: v for v in self.vertices}
        if len(by_label) != len(self.vertices):
            raise DatumError("duplicate vertex labels")
        for e in self.edges:
            for vertex_label, spec in (e.head, e.tail):
                if vertex_label not in by_label:
                    raise DatumError(
                        f"edge {e.label!r} ends at unknown vertex {vertex_label!r}"
                    )
                # Raises if the edge group does not embed as specified.
                _check_spec(spec, e.group, by_label[vertex_label].stabiliser)


# Every loop at z is bounded by z - z through the identity; all loops share it.
_LOOP_TERMS = (BoundaryTerm(1, "z", "id"), BoundaryTerm(-1, "z", "id"))


def _fuchsian_graph(loops: int, free: GroupId, cones: list[GroupId], via: str):
    # (vertices, edges, edge terms): a vertex z with group `free` carrying
    # `loops` loops, and one pendant edge with group `free` from z into each
    # cone vertex, embedded there by the spec `via->cone`.  Equal cones share
    # one GroupId object, so datum validation checks each spec once.
    shared: dict[GroupId, GroupId] = {}
    cones = [shared.setdefault(cone, cone) for cone in cones]
    vertices = (Cell("z", free),)
    vertices += tuple(Cell(f"p{j + 1}", cone) for j, cone in enumerate(cones))
    edges = Cell.orbits([f"l{i + 1}" for i in range(loops)], free)
    edges += tuple(Cell(f"d{j + 1}", free) for j in range(len(cones)))
    terms = (_LOOP_TERMS,) * loops + tuple(
        (BoundaryTerm(1, f"p{j + 1}", f"{via}->{cone.name()}"), _LOOP_TERMS[1])
        for j, cone in enumerate(cones)
    )
    return vertices, edges, terms


def fuchsian_cocompact_datum(sig: Signature) -> GammaCWDatum:
    """Fundamental-polygon datum for a cocompact signature [g, 0; m_1..m_r].

    The graph of `fuchsian_noncocompact_datum` with 2g loops, plus a single
    free 2-cell whose polygon boundary traverses every edge twice with
    opposite orientations, so its chain boundary cancels to zero term by term.
    """
    if not sig.is_cocompact():
        raise DatumError("cocompact datum needs s = 0")
    trivial = GroupId.trivial()
    cones = [GroupId.cyclic(m) for m in sig.periods]
    vertices, edges, terms = _fuchsian_graph(2 * sig.g, trivial, cones, "triv")
    face = tuple(BoundaryTerm(sign, e.label, "id") for e in edges for sign in (1, -1))
    return GammaCWDatum(
        f"fuchsian{sig}", (vertices, edges, (Cell("w", trivial),)), (terms, (face,))
    )


def fuchsian_noncocompact_datum(sig: Signature) -> GammaCWDatum:
    """The 1-dimensional datum of a finite-covolume signature [g, s >= 1; m_1..m_r].

    One free vertex carrying 2g + s - 1 loops, plus one pendant edge from it
    into each cone vertex Z/m_j.
    """
    if sig.is_cocompact():
        raise DatumError("graph-of-groups datum needs s >= 1")
    cones = [GroupId.cyclic(m) for m in sig.periods]
    loops = 2 * sig.g + sig.s - 1
    vertices, edges, terms = _fuchsian_graph(loops, GroupId.trivial(), cones, "triv")
    return GammaCWDatum(f"fuchsian{sig}", (vertices, edges), (terms,))


def fuchsian_graph_of_groups(sig: Signature) -> GraphOfGroupsDatum:
    """Graph of groups for a finite-covolume signature [g, s >= 1; m_1..m_r].

    The cells and terms of `fuchsian_noncocompact_datum`, as vertices and edges.
    """
    datum = fuchsian_noncocompact_datum(sig)
    vertices, edges = datum.cells
    return GraphOfGroupsDatum(
        datum.name,
        vertices,
        tuple(
            GraphEdge(e.label, e.stabiliser, (head.target, head.spec), (tail.target, tail.spec))
            for e, (head, tail) in zip(edges, datum.boundaries[0])
        ),
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
