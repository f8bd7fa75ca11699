"""Text format for Gamma-CW data.

A file is UTF-8, with an optional leading byte-order mark; `#` starts a
comment, blank lines are ignored.  A `name = ...` line (and optionally
`snf_equivalent = true`), each key once, precedes the sections.  Cells are
declared per dimension:

    [cells.0]
    z = 1            # label = stabiliser name
    c1 = Z3

Boundaries out of each positive dimension with cells come either as signed
term lists through catalogued inductions,

    [boundary.1]
    y1 = +1 * c1 : triv->Z3, -1 * z : id

or as a raw integer matrix on the chain groups (rows live in the chain
group one dimension down, columns index the irreducibles of the n-cell
stabilisers in declaration order; rows of one length, cells on both sides):

    [matrix.2]
    0 1 0
    1 0 0

Group names: "1", "Z2", "Z3", "Z4", "Z6", "D3", "D4", "D6", "S4", "Zm(m)"
for other cyclic orders, and a "Z2x" prefix per central Z/2 factor; the
prefixes nest ("Z2xZ2" is the Klein group, "Z2xZ2xS4"), and "D6" is
Z/2 x D3.  Induction specs are "id", "triv->Zm" or "Zd->Zm".

Every datum round-trips: `parse_cw(format_cw(d)) == d`, and emitting that
again gives the same text.  The `GammaCWDatum` constructor holds the grammar
that makes this so, and `parse_cw` calls its rules: the name is one line
without `#` or outer whitespace, cell labels are ASCII identifiers, specs
are one line without outer whitespace.  Comments, spacing and alternative
group names (`Zm(01)`, `Z2xZ3`) are not kept.
"""

from __future__ import annotations

import re

from .bredon import DatumError, GammaCWDatum, are_cell_labels, parse_induction_spec
from .exactlinalg import InputError, IntMatrix, ascii_int
from .groups import GroupId, UnsupportedGroupError, parse_name


class CWFormatError(InputError):
    """Raised for malformed Gamma-CW files."""


_SECTION_RE = re.compile(r"^\[(cells|boundary|matrix)\.([0-9]+)\]$")
# the target: a run of text without spaces or colons, refused unless a cell label
_TERM_RE = re.compile(r"^([+-]?1)\s*\*\s*([^\s:]*)\s*:\s*(.+)$")


def _parse_terms(body: str, lineno: int) -> tuple[tuple[int, str, str], ...]:
    body = body.strip()
    if not body:
        return ()
    terms = []
    for part in body.split(","):
        part = part.strip()
        m = _TERM_RE.match(part)
        if not (m and are_cell_labels((m.group(2),))):
            raise CWFormatError(
                f"line {lineno}: bad boundary term {part!r} "
                "(expected '+1 * label : spec')"
            )
        sign = -1 if m.group(1) == "-1" else 1
        spec = m.group(3).strip()
        try:
            parse_induction_spec(spec)
        except DatumError as exc:
            raise CWFormatError(f"line {lineno}: {exc}") from exc
        terms.append((sign, m.group(2), spec))
    return tuple(terms)


def parse_cw(text: str) -> GammaCWDatum:
    """Parse a Gamma-CW file, its byte-order mark dropped, into a datum."""
    header: dict[str, str] = {}
    cells: dict[int, list[tuple[str, GroupId]]] = {}
    term_sections: dict[int, list[tuple[str, tuple]]] = {}
    matrix_sections: dict[int, list[list[int]]] = {}
    current: tuple[str, int] | None = None

    for lineno, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                raise CWFormatError(f"line {lineno}: bad section header {line!r}")
            try:
                kind, n = m.group(1), ascii_int(m.group(2))
            except InputError as exc:
                raise CWFormatError(f"line {lineno}: {exc}") from exc
            if kind != "cells" and n < 1:
                raise CWFormatError(f"line {lineno}: [{kind}.{n}] needs dimension >= 1")
            store = {"cells": cells, "boundary": term_sections, "matrix": matrix_sections}[kind]
            if n in store:
                raise CWFormatError(f"line {lineno}: duplicate section [{kind}.{n}]")
            if kind == "boundary" and n in matrix_sections or kind == "matrix" and n in term_sections:
                raise CWFormatError(
                    f"line {lineno}: dimension {n} has both term and matrix boundaries"
                )
            store[n] = []
            current = (kind, n)
            continue
        if current is None:
            if "=" not in line:
                raise CWFormatError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = (x.strip() for x in line.partition("="))
            if key not in ("name", "snf_equivalent"):
                raise CWFormatError(f"line {lineno}: unknown header key {key!r}")
            if key in header:
                raise CWFormatError(f"line {lineno}: duplicate header key {key!r}")
            if key == "snf_equivalent" and value not in ("true", "false"):
                raise CWFormatError(f"line {lineno}: snf_equivalent must be true/false")
            header[key] = value
            continue
        kind, n = current
        if kind == "cells":
            if "=" not in line:
                raise CWFormatError(f"line {lineno}: expected 'label = group'")
            label, _, group = (x.strip() for x in line.partition("="))
            if not are_cell_labels((label,)):
                raise CWFormatError(f"line {lineno}: bad cell label {label!r}")
            try:
                gid = parse_name(group)
            except UnsupportedGroupError as exc:
                raise CWFormatError(f"line {lineno}: {exc}") from exc
            cells[n].append((label, gid))
        elif kind == "boundary":
            label, eq, body = line.partition("=")
            if not eq:
                raise CWFormatError(f"line {lineno}: expected 'label = terms'")
            term_sections[n].append((label.strip(), _parse_terms(body, lineno)))
        else:
            try:
                row = [ascii_int(tok) for tok in line.split()]
            except ValueError as exc:
                raise CWFormatError(f"line {lineno}: bad matrix row {line!r}") from exc
            if matrix_sections[n] and len(row) != len(matrix_sections[n][0]):
                raise CWFormatError(f"line {lineno}: ragged matrix row {line!r}")
            matrix_sections[n].append(row)

    if "name" not in header:
        raise CWFormatError("missing 'name = ...' header line")
    if not cells:
        raise CWFormatError("no [cells.N] sections found")
    top = max(cells)
    for n in range(top + 1):
        if n not in cells:
            raise CWFormatError(f"missing section [cells.{n}] (dimensions must be contiguous)")

    layers = tuple(tuple(cells[n]) for n in range(top + 1))

    for n in set(term_sections) | set(matrix_sections):
        if n > top or not cells[n]:
            raise CWFormatError(f"boundary section for dimension {n} has no cells")

    # The file gives term lists by label, the datum one per cell in cell
    # order, so the label rules are checked here; unknown labels are reported
    # once every dimension has passed the other two.
    boundaries, unknown = [], []
    for n in range(1, top + 1):
        labels = [label for label, _ in layers[n]]
        if n in matrix_sections:
            # the datum checks the shape against the stabilisers' ranks
            boundaries.append(IntMatrix.from_rows(matrix_sections[n]))
            continue
        if labels and n not in term_sections:
            raise CWFormatError(f"no boundary given for dimension {n}")
        assigned = {}
        for label, terms in term_sections.get(n, ()):
            if label in assigned:
                raise CWFormatError(f"[boundary.{n}] assigns {label!r} twice")
            assigned[label] = terms
        missing = [lbl for lbl in labels if lbl not in assigned]
        if missing:
            raise CWFormatError(
                f"[boundary.{n}] is missing cells {missing} (write 'label =' for zero)"
            )
        extra = sorted(set(assigned).difference(labels))
        if extra:
            unknown.append(f"boundary given for unknown {n}-cells {extra}")
        boundaries.append(tuple(assigned[label] for label in labels))
    if unknown:
        raise CWFormatError(unknown[0])

    try:
        return GammaCWDatum(header["name"], layers, tuple(boundaries),
                            header.get("snf_equivalent") == "true")
    except DatumError as exc:
        raise CWFormatError(str(exc)) from exc


def format_cw(datum: GammaCWDatum) -> str:
    """Serialize a datum in one fixed layout, which `parse_cw` reads back as
    the same datum; the `GammaCWDatum` constructor refused whatever the
    layout could not carry."""
    lines = [f"name = {datum.name}"]
    if datum.snf_equivalent:
        lines.append("snf_equivalent = true")
    for n, layer in enumerate(datum.cells):
        lines.append("")
        lines.append(f"[cells.{n}]")
        for label, gid in layer:
            lines.append(f"{label} = {gid.name()}")
    for n in range(1, len(datum.cells)):
        if not datum.cells[n]:
            continue
        b = datum.boundaries[n - 1]
        lines.append("")
        if isinstance(b, IntMatrix):
            lines.append(f"[matrix.{n}]")
            for row in b.row_list():
                lines.append(" ".join(str(x) for x in row))
        else:
            lines.append(f"[boundary.{n}]")
            for (label, _), terms in zip(datum.cells[n], b):
                rendered = ", ".join(
                    f"{'+' if sign > 0 else '-'}1 * {target} : {spec}"
                    for sign, target, spec in terms
                )
                lines.append(f"{label} = {rendered}".rstrip())
    return "\n".join(lines) + "\n"
