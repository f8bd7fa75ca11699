"""The Gamma-CW text format: parsing, serialization, round-trips."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equiko import cli
from equiko.bredon import (
    DatumError,
    GammaCWDatum,
    bredon_homology,
    expand,
    fuchsian_datum,
    lifted_fuchsian_datum,
    sl3_datum,
)
from equiko.cwfile import CWFormatError, format_cw, parse_cw
from equiko.exactlinalg import IntMatrix
from equiko.fuchsian import Signature, parse_signature
from equiko.groups import GroupId, parse_name


def test_minimal_document():
    datum = parse_cw(
        """
        name = point
        [cells.0]
        v = S4
        """
    )
    assert datum.name == "point"
    assert expand(datum).ranks == (5,)
    assert [str(g) for g in bredon_homology(datum)] == ["Z^5"]


def test_terms_and_comments():
    datum = parse_cw(
        """
        # a cone over a point
        name = interval
        [cells.0]
        z = 1
        c = Z3    # cone vertex
        [cells.1]
        y = 1
        [boundary.1]
        y = +1 * c : triv->Z3, -1 * z : id
        """
    )
    assert expand(datum).ranks == (4, 1)
    h = bredon_homology(datum)
    assert [str(g) for g in h] == ["Z^3", "0"]


@pytest.mark.parametrize("vertex, edge", [
    ("Z2", "Z2x1"), ("Z2xZ2", "Z2xZm(2)"), ("Z6", "Z2xZ3"), ("Zm(10)", "Z2xZm(5)"),
    ("D6", "Z2xD3"),
])
def test_id_joins_a_group_to_its_product_name(vertex, edge):
    # Z2 x 1 is Z/2, Z2 x Z2 the Klein group, Z2 x Z/m for odd m is Z/2m and
    # Z2 x D3 is D6, whichever name a file uses
    datum = parse_cw(
        f"""
        name = loop
        [cells.0]
        v = {vertex}
        [cells.1]
        e = {edge}
        [boundary.1]
        e = +1 * v : id, -1 * v : id
        """
    )
    h0, h1 = bredon_homology(datum)
    assert h0 == h1 and h0.free_rank == expand(datum).ranks[0]


def test_roundtrip_builtin_data():
    data = [
        sl3_datum(),
        fuchsian_datum(Signature(0, 0, (2, 3, 7))),
        fuchsian_datum(Signature(2, 0, ())),
        fuchsian_datum(parse_signature("[0,1;2,3]")),
        fuchsian_datum(parse_signature("[1,3;2,2,3]")),
        lifted_fuchsian_datum(parse_signature("[0,2;2,3]")),
    ]
    for datum in data:
        text = format_cw(datum)
        parsed = parse_cw(text)
        assert parsed == datum
        assert format_cw(parsed) == text  # byte-identical re-emit
        assert bredon_homology(parsed) == bredon_homology(datum)


def _assert_roundtrip(datum):
    text = format_cw(datum)
    parsed = parse_cw(text)
    assert parsed == datum
    assert format_cw(parsed) == text
    assert expand(parsed) == expand(datum)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 30), st.integers(0, 15), st.lists(st.integers(2, 12), max_size=5),
       st.booleans())
def test_roundtrip_graph_property(loops, g, periods, lift):
    # 2g + s - 1 loops at the free vertex; the lift takes periods 2 and 3 only
    g = min(g, loops // 2)
    if lift:
        sig = Signature(g, loops - 2 * g + 1, tuple(2 + m % 2 for m in periods))
        _assert_roundtrip(lifted_fuchsian_datum(sig))
    else:
        _assert_roundtrip(fuchsian_datum(Signature(g, loops - 2 * g + 1, periods)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 4), st.lists(st.integers(2, 12), max_size=5))
def test_roundtrip_polygon_property(g, periods):
    sig = Signature(g, 0, periods)
    assume(sig.is_hyperbolic())
    _assert_roundtrip(fuchsian_datum(sig))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.sampled_from(["1", "Z2", "Z3", "S4"]), max_size=3),
                min_size=1, max_size=4))
def test_roundtrip_zero_maps_property(layers):
    # every boundary is the zero map, also next to dimensions without cells,
    # where it has no rows or no columns and is written as term lists
    cells = tuple(tuple((f"c{n}_{i}", parse_name(g)) for i, g in enumerate(layer))
                  for n, layer in enumerate(layers))
    zero_maps = tuple(((),) * len(layer) for layer in cells[1:])
    _assert_roundtrip(GammaCWDatum("zero", cells, zero_maps))


# every separator str.splitlines splits on, and other text a file treats
# specially: comments, keys, term and list separators, non-ASCII
_LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]
_PAD = st.one_of(st.just(""), st.sampled_from(
    _LINE_BREAKS + [" ", "\t", "\xa0", "#", "=", ",", ":", "*", "[", "é", "²"]))


def _padded(core):
    # core text with awkward text or nothing before, inside and after it
    return st.builds(lambda a, x, b, y, c: a + x + b + y + c, _PAD, core, _PAD, core, _PAD)


_LABEL = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
_CONTAINERS = ("cells", "layer", "pair", "terms", "term")
# per field of a small datum: values a file carries, and arbitrary values
_GOOD = {
    "name": st.sampled_from(["edge", "x y", "a=b", "[x", "é", "", "x\ty"]),
    "v": _LABEL, "w": _LABEL.map("w_".__add__), "e": _LABEL,
    "spec": st.sampled_from(["Z2->Z6", "Z2 -> Z6", "Z2->\tZm(6)", "Z2x1->Z2xZ3",
                             "Z2\xa0->Z6"]),
    "flag": st.booleans(),
    **dict.fromkeys(_CONTAINERS, st.just(tuple)),
}
_ANY = {
    "name": st.one_of(st.text(), _padded(st.text("ab ", max_size=2)), st.integers(),
                      st.none()),
    **dict.fromkeys("vwe", st.one_of(st.text(max_size=4), _padded(_LABEL), st.integers())),
    "spec": st.one_of(st.builds(lambda a, b, c, d: a + "Z2" + b + "->" + c + "Z6" + d,
                                _PAD, _PAD, _PAD, _PAD), st.text(max_size=8)),
    "flag": st.one_of(st.integers(-1, 2), st.text(max_size=4), st.none(), st.just([True])),
    **dict.fromkeys(_CONTAINERS, st.sampled_from([tuple, list])),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_every_datum_the_constructor_accepts_round_trips(data):
    # an edge e (Z/2) from a vertex v (Z/6), next to a free vertex w; up to
    # three fields take arbitrary values, the others values a file carries
    spoilt = data.draw(st.sets(st.sampled_from(sorted(_GOOD)), max_size=3))
    x = {f: data.draw(_ANY[f] if f in spoilt else _GOOD[f], label=f) for f in sorted(_GOOD)}
    outer, layer, pair, terms, term = (x[c] for c in _CONTAINERS)
    cells = outer([layer([pair([x["v"], GroupId.cyclic(6)]), pair([x["w"], GroupId.trivial()])]),
                   layer([pair([x["e"], GroupId.cyclic(2)])])])
    boundaries = outer([outer([terms([term([1, x["v"], x["spec"]])])])])
    try:
        datum = GammaCWDatum(x["name"], cells, boundaries, x["flag"])
    except DatumError:
        return
    _assert_roundtrip(datum)


def test_matrix_sections_roundtrip():
    text = format_cw(sl3_datum())
    assert "[matrix.1]" in text and "[matrix.3]" in text
    assert "snf_equivalent = true" in text


def test_a_matrix_built_from_a_list_round_trips():
    trivial = GroupId.trivial()
    cells = ((("v", trivial),), (("e", trivial),))
    datum = GammaCWDatum("loop", cells, (IntMatrix(1, 1, [0]),))
    assert parse_cw(format_cw(datum)) == datum


_MESSY = """
# comments, extra spaces and other names for the same groups
name   =  demo   # not part of the name
[cells.0]
z  = 1
p =Zm(01)
q = Z2xZ3   # Z/6
r = Z2x1
[cells.1]
e = 1
f = Z2
[boundary.1]
e = +1 * z : id ,   -1 * z : id
f = +1*r:id, -1 * q : Z2->Z6
"""

_MESSY_EMITTED = """name = demo

[cells.0]
z = 1
p = 1
q = Z6
r = Z2

[cells.1]
e = 1
f = Z2

[boundary.1]
e = +1 * z : id, -1 * z : id
f = +1 * r : id, -1 * q : Z2->Z6
"""


def test_parsed_text_reemits_in_one_layout():
    # format_cw keeps the parsed datum, not the text: comments, spacing and
    # group spellings go, and the emitted text parses back and re-emits as is
    datum = parse_cw(_MESSY)
    text = format_cw(datum)
    assert text == _MESSY_EMITTED
    assert parse_cw(text) == datum
    assert format_cw(parse_cw(text)) == text


def _expect_error(text, fragment):
    with pytest.raises(CWFormatError) as err:
        parse_cw(text)
    assert fragment in str(err.value)


def test_parse_error_unknown_group():
    _expect_error("name = x\n[cells.0]\nv = Q8\n", "unknown group")


@pytest.mark.parametrize("order", ["²", "٣"])
def test_parse_error_non_ascii_cyclic_order(order):
    # int() rejects '²' and reads '٣' as 3; both are malformed orders
    _expect_error(f"name = x\n[cells.0]\nv = 1\nz = Zm({order})\n",
                  f"line 4: bad cyclic order in 'Zm({order})'")


_EDGE = "name = x\n[cells.0]\nv = 1\n[cells.1]\ne = 1\n[matrix.1]\n"


@pytest.mark.parametrize("text, message", [
    ("name = x\n[cells.٠]\nv = 1\n", "line 2: bad section header '[cells.٠]'"),
    (_EDGE + "٣\n", "line 7: bad matrix row '٣'"),
    (_EDGE + "1_0\n", "line 7: bad matrix row '1_0'"),
], ids=["section", "row-digit", "row-underscore"])
def test_parse_error_non_ascii_integer(text, message):
    # \d and int() read '٠' as 0 and '٣' as 3, and int() reads '1_0' as 10
    _expect_error(text, message)


def test_matrix_rows_keep_ascii_signs():
    datum = parse_cw("name = x\n[cells.0]\nv = 1\nw = 1\n[cells.1]\ne = 1\n"
                     "[matrix.1]\n+2\n-3\n")
    assert datum.boundaries[0].row_list() == [[2], [-3]]


def test_parse_error_reports_line_numbers():
    with pytest.raises(CWFormatError) as err:
        parse_cw("name = x\n[cells.0]\nv = Q8\n")
    assert "line 3" in str(err.value)


def test_parse_error_missing_name():
    _expect_error("[cells.0]\nv = 1\n", "name")


def test_parse_error_no_cells():
    _expect_error("name = x\n", "cells")


def test_parse_error_duplicate_label():
    _expect_error(
        "name = x\n[cells.0]\nv = 1\nv = Z2\n", "duplicate"
    )


@pytest.mark.parametrize("header, message", [
    ("name = x\nname = y\n", "line 2: duplicate header key 'name'"),
    ("name = x\nsnf_equivalent = true\nsnf_equivalent = false\n",
     "line 3: duplicate header key 'snf_equivalent'"),
])
def test_parse_error_duplicate_header_key(header, message):
    _expect_error(header + "[cells.0]\nv = 1\n", message)


def test_parse_error_gap_in_dimensions():
    _expect_error(
        "name = x\n[cells.0]\nv = 1\n[cells.2]\nf = 1\n", "contiguous"
    )


def test_parse_error_unassigned_cell():
    _expect_error(
        """
        name = x
        [cells.0]
        v = 1
        [cells.1]
        e = 1
        f = 1
        [boundary.1]
        e = +1 * v : id, -1 * v : id
        """,
        "f",
    )


def test_parse_error_bad_term():
    _expect_error(
        """
        name = x
        [cells.0]
        v = 1
        [cells.1]
        e = 1
        [boundary.1]
        e = +2 * v : id
        """,
        "term",
    )


def test_parse_error_both_boundary_and_matrix():
    _expect_error(
        """
        name = x
        [cells.0]
        v = 1
        [cells.1]
        e = 1
        [boundary.1]
        e =
        [matrix.1]
        0
        """,
        "matrix",
    )


@pytest.mark.parametrize("cells, section", [
    ("", "[matrix.1]"), ("[cells.1]\n", "[matrix.1]"), ("[cells.1]\n", "[boundary.1]"),
])
def test_parse_error_boundary_over_a_dimension_without_cells(cells, section):
    _expect_error(f"name = x\n[cells.0]\nv = 1\n{cells}{section}\n",
                  "boundary section for dimension 1 has no cells")


def test_parse_error_matrix_shape():
    _expect_error(
        """
        name = x
        [cells.0]
        v = Z2
        [cells.1]
        e = 1
        [matrix.1]
        1
        """,
        "is 1x1, expected 2x1",
    )


_TWO_EDGES = "name = x\n[cells.0]\nv = 1\nw = 1\n[cells.1]\ne = 1\nf = 1\n"

#: files that `complex --file` refuses with exit 2: (file text, the whole message)
_REFUSED = [
    (_TWO_EDGES + "[boundary.1]\ne =\nf =\ng = +1 * v : id\n",
     "boundary given for unknown 1-cells ['g']"),
    (_TWO_EDGES + "[boundary.1]\ne = +1 * v : id, -1 * u : id\nf =\n",
     "boundary of 'e' hits unknown 0-cell 'u'"),
    (_TWO_EDGES + "[matrix.1]\n1 0\n1\n", "line 10: ragged matrix row '1'"),
    (_TWO_EDGES + "[matrix.1]\n1 0\n",
     "matrix for the boundary out of dimension 1 is 1x2, expected 2x2"),
    (_TWO_EDGES + "[matrix.1]\n1 0 0\n0 1 0\n",
     "matrix for the boundary out of dimension 1 is 2x3, expected 2x2"),
    (_TWO_EDGES + "[matrix.1]\n",
     "matrix for the boundary out of dimension 1 is 0x0, expected 2x2"),
    ("name = x\n[cells.0]\n[cells.1]\ne = Z2\n[matrix.1]\n",
     "the boundary out of dimension 1 is zero, as dimension 0 or 1 has no cells; "
     "give it as term lists"),
    # a cell missing in any dimension is reported before an unknown one
    (_TWO_EDGES + "[cells.2]\nt = 1\n[boundary.1]\ne =\nf =\ng = +1 * v : id\n[boundary.2]\n",
     "[boundary.2] is missing cells ['t'] (write 'label =' for zero)"),
    # labels are ASCII identifiers, in cells and in boundary terms
    *((f"name = x\n[cells.0]\nv = 1\n{label} = Z2\n", f"line 4: bad cell label {label!r}")
      for label in ["a b", "é", "1a", "a-b"]),
    *((_TWO_EDGES + f"[boundary.1]\ne = {term}\nf =\n",
       f"line 9: bad boundary term {term!r} (expected '+1 * label : spec')")
      for term in ["+1 * é : id", "+1 * 1a : id", "+1 * a b : id", "+1 *  : id"]),
    # induction runs along cyclic inclusions; Z/2 x Z/m is no cyclic target
    *((f"name = x\n[cells.0]\nv = {target}\n[cells.1]\ne = {source}\n"
       f"[boundary.1]\ne = +1 * v : {spec}\n",
       f"line 7: induction target in {spec!r} must be cyclic")
      for source, target, spec in [("1", "Z2xZ2", "triv->Z2xZ2"), ("Z2", "Z2xZ2", "Z2->Z2xZ2"),
                                   ("Z4", "Z2xZ4", "Z4->Z2xZ4")]),
]
_REFUSED_IDS = ["unknown-cell", "unknown-target", "ragged", "few-rows", "wide", "empty",
                "no-rows", "missing-before-unknown", "label-space", "label-non-ascii",
                "label-digit", "label-dash", "target-non-ascii", "target-digit",
                "target-space", "target-empty", "induce-to-klein", "induce-z2-to-klein",
                "induce-z4-to-z2xz4"]


@pytest.mark.parametrize("text, message", _REFUSED, ids=_REFUSED_IDS)
def test_parse_refuses(text, message):
    with pytest.raises(CWFormatError) as err:
        parse_cw(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", _REFUSED, ids=_REFUSED_IDS)
def test_refused_file_exits_two(text, message, tmp_path, capsys):
    path = tmp_path / "bad.cw"
    path.write_text(text, encoding="utf-8")
    code = cli.main(["complex", "--file", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_leading_byte_order_mark_is_dropped(fmt, tmp_path, monkeypatch, capsys):
    # the same name in two directories, so JSON's `inputs.file` matches too
    text = format_cw(sl3_datum())
    (tmp_path / "plain").mkdir()
    (tmp_path / "plain" / "sl3.cw").write_text(text, encoding="utf-8")
    (tmp_path / "bom").mkdir()
    (tmp_path / "bom" / "sl3.cw").write_text("\ufeff" + text, encoding="utf-8")
    runs = []
    for directory in ("plain", "bom"):
        monkeypatch.chdir(tmp_path / directory)
        code = cli.main(["complex", "--file", "sl3.cw", "--ko", "--format", fmt])
        runs.append((code, *capsys.readouterr()))
    assert runs[0][0] == 0 and "KO0" in runs[0][1]
    assert runs[1] == runs[0]


def test_a_byte_order_mark_past_the_start_is_refused(tmp_path, capsys):
    path = tmp_path / "bad.cw"
    path.write_text("\ufeffname = a\n[cells.0]\nv\ufeff = 1\n", encoding="utf-8")
    code = cli.main(["complex", "--file", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: line 3: bad cell label 'v\\ufeff'\n")


def test_parse_error_bad_spec():
    _expect_error(
        """
        name = x
        [cells.0]
        v = Z3
        [cells.1]
        e = Z2
        [boundary.1]
        e = +1 * v : Z2->Z3
        """,
        "Z2->Z3",
    )


@pytest.mark.parametrize("group, term, message", [
    ("1", "+1 * c : triv->Z4", "spec 'triv->Z4' targets Z4 but the cell has stabiliser Z3"),
    ("Z2", "-1 * z : id", "'id' between different stabilisers Z2 and 1"),
])
def test_mismatched_last_term_after_many_loops(group, term, message):
    loops = [f"l{i}" for i in range(1000)]
    text = "\n".join(
        ["name = bad", "[cells.0]", "z = 1", "c = Z3", "[cells.1]"]
        + [f"{label} = 1" for label in loops]
        + [f"y = {group}", "[boundary.1]"]
        + [f"{label} = +1 * z : id, -1 * z : id" for label in loops]
        + [f"y = {term}"]
    )
    with pytest.raises(CWFormatError) as exc:
        parse_cw(text)
    assert str(exc.value) == message


def test_empty_boundary_line_allowed():
    datum = parse_cw(
        """
        name = x
        [cells.0]
        v = 1
        [cells.1]
        e = 1
        [boundary.1]
        e =
        """
    )
    h = bredon_homology(datum)
    assert [str(g) for g in h] == ["Z", "Z"]


def test_zm1_is_the_trivial_group():
    # Z/1 is the trivial group: an 'id' edge from a 1-cell joins a Zm(1) vertex
    datum = parse_cw(
        """
        name = x
        [cells.0]
        z = Zm(1)
        [cells.1]
        e = 1
        [boundary.1]
        e = +1 * z : id, -1 * z : id
        """
    )
    assert [gid.name() for _, gid in datum.cells[0]] == ["1"]
    assert [str(g) for g in bredon_homology(datum)] == ["Z", "Z"]
