"""Gamma-CW data, chain expansion, and Bredon homology."""

import hashlib
import random

import pytest

from equiko import bredon, exactlinalg
from equiko.bredon import (
    DatumError,
    GammaCWDatum,
    GraphOfGroupsDatum,
    bredon_homology,
    expand,
    fuchsian_datum,
    lifted_fuchsian_datum,
    sl3_datum,
)
from equiko.cwfile import format_cw
from equiko.exactlinalg import ChainComplexError, IntMatrix
from equiko.fuchsian import (
    MODULAR_SIGNATURE,
    Signature,
    bredon_closed_form,
    hecke_signature,
    parse_signature,
)
from equiko.groups import GroupId, complex_irreducible_count, parse_name


_EDGE_CELLS = ((("v", GroupId.trivial()),), (("e", GroupId.trivial()),))


# -- expansion -------------------------------------------------------------------


def test_expand_ranks_triangle_group():
    datum = fuchsian_datum(Signature(0, 0, (2, 3, 7)))
    c = expand(datum)
    # vertex rings 1 + 2 + 3 + 7, three edges, one face
    assert c.ranks == (13, 3, 1)


def test_expand_ranks_sl3():
    assert expand(sl3_datum()).ranks == (26, 28, 11, 1)


def test_expand_respects_signs_and_specs():
    # a single loop at a Z/2 vertex: boundary = id - id = 0
    datum = GammaCWDatum(
        "loop",
        ((("v", GroupId.cyclic(2)),), (("e", GroupId.cyclic(2)),)),
        ((((1, "v", "id"), (-1, "v", "id")),),),
    )
    c = expand(datum)
    assert c.ranks == (2, 2)
    assert c.boundaries[0].is_zero()
    assert [str(g) for g in bredon_homology(datum)] == ["Z^2", "Z^2"]


def test_expand_induction_spec():
    # an edge with trivial stabiliser from a Z/4 cone point to a free vertex
    datum = GammaCWDatum(
        "wedge",
        ((("z", GroupId.trivial()), ("c", GroupId.cyclic(4))),
         (("y", GroupId.trivial()),)),
        ((((1, "c", "triv->Z4"), (-1, "z", "id")),),),
    )
    c = expand(datum)
    assert c.ranks == (5, 1)
    assert c.boundaries[0].row_list() == [[-1], [1], [1], [1], [1]]


def test_triv_spells_the_cyclic_source_zm1():
    _, source, target = bredon.parse_induction_spec("triv->Z6")
    assert (source, target) == bredon.parse_induction_spec("Zm(1)->Z6")[1:]
    assert source is GroupId.trivial()


# Z/2 x Z/m has kind "cyclic" for its base only; induction runs along cyclic
# inclusions, so a product at either end of a spec is refused
@pytest.mark.parametrize("spec, end", [
    ("triv->Z2xZ2", "target"), ("Z2->Z2xZ2", "target"), ("Z4->Z2xZ4", "target"),
    ("Z2xZ2->Z2xZ4", "target"), ("Z2xZ2->Z4", "source"),
])
def test_induction_spec_with_a_product_refused(spec, end):
    with pytest.raises(DatumError) as exc:
        bredon.parse_induction_spec(spec)
    assert str(exc.value) == f"induction {end} in {spec!r} must be cyclic"


def _mixed_induction_datum():
    # every induction kind of the catalogue: Z2->Z6 (twice into one block),
    # Z3->Z6, triv->Zm(5), and id on S4, D4 and Z2xS4
    g = parse_name
    return GammaCWDatum(
        "mixed",
        (
            (("z", g("1")), ("c5", g("Zm(5)")), ("c6", g("Z6")),
             ("s", g("S4")), ("d", g("D4")), ("w", g("Z2xS4"))),
            (("a", g("Z2")), ("b", g("Z3")), ("y", g("1")),
             ("es", g("S4")), ("ed", g("D4")), ("ew", g("Z2xS4"))),
            (("t", g("Z2")), ("u", g("Z2xS4"))),
        ),
        (
            (
                ((1, "c6", "Z2->Z6"), (1, "c6", "Z2->Z6")),  # a
                ((-1, "c6", "Z3->Z6"),),  # b
                ((1, "c5", "triv->Zm(5)"), (-1, "z", "id")),  # y
                ((1, "s", "id"),),  # es
                ((-1, "d", "id"),),  # ed
                ((1, "w", "id"),),  # ew
            ),
            (
                ((1, "a", "id"), (-1, "a", "id")),  # t
                ((-1, "ew", "id"), (1, "ew", "id")),  # u
            ),
        ),
    )


def _pinned_data():
    yield "sl3", sl3_datum()
    for text in ["[0,0;2,3,7]", "[2,0;2,2]", "[1,0;2,4]"]:
        yield text, fuchsian_datum(parse_signature(text))
    open_sigs = [MODULAR_SIGNATURE, parse_signature("[0,2;997,991]"),
                 parse_signature("[0,3;4,6,12]")]
    for sig in open_sigs:
        yield str(sig), fuchsian_datum(sig)
    for p in (2, 3, 13, 17, 19, 23, 97):
        yield f"hecke{p}", fuchsian_datum(hecke_signature(p))
    for sig in [MODULAR_SIGNATURE, parse_signature("[1,2;2,3]")]:
        yield f"lift{sig}", lifted_fuchsian_datum(sig)
    yield "mixed", _mixed_induction_datum()


# sha256 of repr((ranks, [(rows, cols, entries) per boundary])) of `expand`
_EXPANSION_DIGESTS = {
    "sl3": "fccf1cbd6fa9140206d90570445d8e6a5cb86562fcc8b3a4938762e93aaa7c5c",
    "[0,0;2,3,7]": "43654ec44a085832bc3706ef1fd31d616c7db3960fdd150eee56400c8364da6b",
    "[2,0;2,2]": "cdea33f308773bc4c963680d164a31823ab573b71959fb9c8075087b616e0c23",
    "[1,0;2,4]": "4712aa3e8c6f123c5d29884b8edb2c0f8c2676878f754d7e27baa8226b78f82b",
    "[0,1;2,3]": "39f16200a473b77e22decc2d54323ff4a2d19eebb5a17a44e0c3c448c7de0dd3",
    "[0,2;997,991]": "a0a4323558f35914bc955487da8f98dc15c816f31426852921286e9d83f5a9d9",
    "[0,3;4,6,12]": "df6092db20761f0d3810521c3f518b64098c21d3b680559b9c0982c968e2d348",
    "hecke2": "49f2be0505dc6fb8aa7c0637cad385cfb23d4a1dc16bef51d761a1823716c057",
    "hecke3": "1d116d457dd07a2ace6cae1acd64539caaa49a2f8426ce6b47336e11d11b76d3",
    "hecke13": "fe50e742e302cb5cab28f28501ba5a0c8501b6c3a07be1cc2cab7287f2433a47",
    "hecke17": "ff8b9fe82e005b20d9917cba756d029849dfed7ce3d865cf88f3b122c40a76a3",
    "hecke19": "b679227085aa5172514f5d067d26d6eb3bd8ac8cdb3f0cc42fc5355989c2c810",
    "hecke23": "799ab23041305c72c551f2e3638438ccc8bc9b2c4abb3afc6ae754e48a82fcd5",
    "hecke97": "48db6c156e335f3ad4cd425b86c1b71e67c34f086e2a83314d3b49c8f039933b",
    "lift[0,1;2,3]": "de3e3c90f50b33668f3e7f6119565c51aef76b2cf02eb420a95b824cb5c60c5d",
    "lift[1,2;2,3]": "65f725e74ea8373de9ffe50f7f83aa6f5111b5db724f476df156790bc9732b36",
    "mixed": "8e0f92c8e9462f0ad69f58395d6372d07d05363c31d67fe816a1ceab8fd89a60",
}


def test_expansion_digests_are_pinned():
    got = {}
    for name, datum in _pinned_data():
        c = expand(datum)
        key = (c.ranks, [(b.rows, b.cols, b.entries) for b in c.boundaries])
        got[name] = hashlib.sha256(repr(key).encode()).hexdigest()
    assert got == _EXPANSION_DIGESTS


def _reference_expand(datum):
    # term by term: a term adds its sign at row k, column j of its block for
    # every k = j (mod d), d the rank of the cell's stabiliser
    offsets, ranks = [], []
    for layer in datum.cells:
        table, pos = {}, 0
        for label, gid in layer:
            table[label] = (pos, complex_irreducible_count(gid))
            pos += table[label][1]
        offsets.append(table)
        ranks.append(pos)
    matrices = []
    for n, b in enumerate(datum.boundaries, start=1):
        rows = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for (label, _), terms in zip(datum.cells[n], b):
            col, d = offsets[n][label]
            for sign, target, _ in terms:
                row, m = offsets[n - 1][target]
                for j in range(d):
                    for k in range(j, m, d):
                        rows[row + k][col + j] += sign
        matrices.append(IntMatrix.from_rows(rows))
    return tuple(ranks), tuple(matrices)


def _shared_terms_datum(monkeypatch):
    # one terms tuple on trivial and Z/2 cells, so on columns of width 1 and
    # 2; no spec fits both sources, so the datum is built unvalidated
    shared = ((1, "c", "triv->Z6"), (-1, "z", "id"), (1, "c", "triv->Z6"))
    vertices = (("z", GroupId.trivial()), ("c", GroupId.cyclic(6)))
    edges = tuple((f"e{i}", GroupId.cyclic(2) if i % 2 else GroupId.trivial())
                  for i in range(5))
    with monkeypatch.context() as patch:
        patch.setattr(GammaCWDatum, "__post_init__", lambda self: None)
        return GammaCWDatum("shared", (vertices, edges), ((shared,) * 5,))


def test_expand_matches_a_term_by_term_expansion(monkeypatch):
    data = [_shared_terms_datum(monkeypatch), _mixed_induction_datum(),
            lifted_fuchsian_datum(hecke_signature(13)),
            fuchsian_datum(hecke_signature(97)),
            fuchsian_datum(parse_signature("[2,0;2,2]"))]
    for datum in data:
        c = expand(datum)
        assert (c.ranks, c.boundaries) == _reference_expand(datum), datum.name
    # columns: e0 | e1 (two) | e2 | e3 (two) | e4; rows: z, then c's six characters
    assert expand(data[0]).boundaries[0].row_list()[:3] == [
        [-1, -1, 0, -1, -1, 0, -1],
        [2, 2, 0, 2, 2, 0, 2],
        [2, 0, 2, 2, 0, 2, 2],
    ]


def test_snf_round_trips_on_expanded_boundaries():
    # the transforms come from the homology kernel run on the bordered matrix
    data = [sl3_datum(), _mixed_induction_datum()]
    data += [fuchsian_datum(hecke_signature(p)) for p in (13, 23)]
    data.append(lifted_fuchsian_datum(hecke_signature(13)))
    for datum in data:
        for b in expand(datum).boundaries:
            res = exactlinalg.smith_normal_form(b)
            assert res.d == exactlinalg._smith_factors(b)
            assert res.left.determinant() in (1, -1)
            assert res.right.determinant() in (1, -1)
            assert res.left @ b @ res.right == IntMatrix.diagonal(res.d, b.rows, b.cols)


def test_matrix_mode_boundary():
    # a raw degree-2 map: the Moore space with H0 = Z/2
    datum = GammaCWDatum("moore", _EDGE_CELLS, (IntMatrix.from_rows([[2]]),))
    assert [str(g) for g in bredon_homology(datum)] == ["Z/2", "0"]


# -- datum validation --------------------------------------------------------------


def test_unknown_target_label_rejected():
    with pytest.raises(DatumError):
        GammaCWDatum("bad", _EDGE_CELLS, ((((1, "w", "id"),),),))


def test_spec_group_mismatch_rejected():
    with pytest.raises(DatumError):
        GammaCWDatum(
            "bad",
            ((("v", GroupId.cyclic(3)),), (("e", GroupId.cyclic(2)),)),
            ((((1, "v", "id"),),),),  # Z2 != Z3
        )
    with pytest.raises(DatumError):
        GammaCWDatum(
            "bad",
            ((("v", GroupId.cyclic(4)),), (("e", GroupId.cyclic(3)),)),
            ((((1, "v", "Z3->Z4"),),),),  # 3 does not divide 4
        )


# 1,000 valid loops at a free vertex z, then one edge whose last term does not
# match its stabilisers: a wrong target, or a wrong source under a spec ("id")
# that every loop has already used
_BAD_LAST_TERMS = [
    ("1", (1, "c", "triv->Z4"), "spec 'triv->Z4' targets Z4 but the cell has stabiliser Z3"),
    ("Z2", (-1, "z", "id"), "'id' between different stabilisers Z2 and 1"),
    ("Z2", (1, "c", "triv->Z3"), "spec 'triv->Z3' starts at 1 but the cell has stabiliser Z2"),
]


@pytest.mark.parametrize("group, term, message", _BAD_LAST_TERMS)
def test_mismatched_last_term_after_many_loops_rejected(group, term, message):
    cells = (
        (("z", GroupId.trivial()), ("c", GroupId.cyclic(3))),
        tuple((f"l{i}", GroupId.trivial()) for i in range(1000)) + (("y", parse_name(group)),),
    )
    # one terms tuple per loop, as a file gives them
    terms = tuple(tuple([(1, "z", "id"), (-1, "z", "id")]) for _ in range(1000)) + ((term,),)
    with pytest.raises(DatumError) as exc:
        GammaCWDatum("bad", cells, (terms,))
    assert str(exc.value) == message


def test_shared_terms_are_checked_against_each_source():
    # the first cell's stabiliser makes the spec valid, the second's does not
    shared = ((1, "c", "triv->Z4"),)
    vertices = (("c", GroupId.cyclic(4)),)
    edges = (("a", GroupId.trivial()), ("b", GroupId.cyclic(2)))
    with pytest.raises(DatumError) as exc:
        GammaCWDatum("bad", (vertices, edges), ((shared, shared),))
    assert str(exc.value) == "spec 'triv->Z4' starts at 1 but the cell has stabiliser Z2"


@pytest.mark.parametrize("sign", [2, 0, -2])
def test_coefficients_other_than_one_rejected(sign):
    with pytest.raises(DatumError) as exc:
        GammaCWDatum("bad", _EDGE_CELLS, ((((sign, "v", "id"),),),))
    assert str(exc.value) == f"boundary coefficients must be +1 or -1, got {sign}"


def test_matrix_shape_mismatch_rejected():
    with pytest.raises((DatumError, ChainComplexError)):
        GammaCWDatum("bad", _EDGE_CELLS, (IntMatrix.from_rows([[1, 0], [0, 1]]),))


@pytest.mark.parametrize("cells, matrix", [
    (((), (("e", GroupId.cyclic(2)),)), IntMatrix(0, 2, ())),
    (((("v", GroupId.cyclic(2)),), ()), IntMatrix(2, 0, ())),
], ids=["0x2", "2x0"])
def test_matrix_next_to_a_dimension_without_cells_rejected(cells, matrix):
    # such a boundary is the zero map, given as term lists; zero rows carry no
    # width, so a file could not read the matrix back
    with pytest.raises(DatumError, match="dimension 0 or 1 has no cells; give it as term lists"):
        GammaCWDatum("zero", cells, (matrix,))
    GammaCWDatum("zero", cells, (((),) * len(cells[1]),))


def _edge_datum(name="edge", label="e", group=GroupId.cyclic(2), spec="Z2->Z6",
                snf_equivalent=False):
    return GammaCWDatum(name, ((("v", GroupId.cyclic(6)),), ((label, group),)),
                        ((((1, "v", spec),),),), snf_equivalent)


_NAME_RULE = "must be one line without '#' or outer whitespace"


# values a Gamma-CW file cannot carry: format_cw would write them and
# parse_cw read back another datum or refuse the text, so the constructor
# refuses them
@pytest.mark.parametrize("change, message", [
    ({"name": "x # y"}, f"datum name 'x # y' {_NAME_RULE}"),
    ({"name": " x "}, f"datum name ' x ' {_NAME_RULE}"),
    ({"name": "x\ny"}, f"datum name 'x\\ny' {_NAME_RULE}"),
    ({"name": "x\u2028y"}, f"datum name 'x\\u2028y' {_NAME_RULE}"),
    ({"name": 5}, f"datum name 5 {_NAME_RULE}"),
    ({"label": "a b"}, "bad cell label 'a b'"),
    ({"label": "é"}, "bad cell label 'é'"),
    ({"label": "a=b"}, "bad cell label 'a=b'"),
    ({"label": 5}, "bad cell label 5"),
    ({"spec": " Z2->Z6 "}, "malformed induction spec ' Z2->Z6 '"),
    ({"spec": "Z2 ->\nZ6"}, "malformed induction spec 'Z2 ->\\nZ6'"),
    ({"snf_equivalent": "yes"}, "snf_equivalent must be a bool, got 'yes'"),
    ({"snf_equivalent": 1}, "snf_equivalent must be a bool, got 1"),
    ({"group": "Z2"}, "the stabiliser of a 1-cell is 'Z2', not a GroupId"),
], ids=lambda value: repr(value) if isinstance(value, dict) else "")
def test_values_a_file_cannot_carry_rejected(change, message):
    with pytest.raises(DatumError) as exc:
        _edge_datum(**change)
    assert str(exc.value) == message


_V = ("v", GroupId.cyclic(6))
_E = ("e", GroupId.cyclic(2))


@pytest.mark.parametrize("cells, boundaries, message", [
    ([(_V,), (_E,)], ((((1, "v", "Z2->Z6"),),),), "cells and boundaries must be tuples"),
    (((_V,), (_E,)), [(((1, "v", "Z2->Z6"),),)], "cells and boundaries must be tuples"),
    (((_V,), [_E]), ((((1, "v", "Z2->Z6"),),),),
     "the 1-cells must be a tuple of (label, GroupId) pairs"),
    (((list(_V),), (_E,)), ((((1, "v", "Z2->Z6"),),),),
     "the 0-cells must be a tuple of (label, GroupId) pairs"),
    (((_V + ("x",),), (_E,)), ((((1, "v", "Z2->Z6"),),),),
     "the 0-cells must be a tuple of (label, GroupId) pairs"),
    (((_V, (["w"], GroupId.trivial())), (_E,)), ((((1, "v", "Z2->Z6"),),),),
     "the 0-cells must be a tuple of (label, GroupId) pairs"),
    (((_V,), (_E,)), ([((1, "v", "Z2->Z6"),)],),
     "the boundary out of dimension 1 must be an IntMatrix or a tuple of term tuples"),
    (((_V,), (_E,)), (([(1, "v", "Z2->Z6")],),),
     "the boundary of 'e' must be a tuple of (sign, target, spec) tuples, "
     "got [(1, 'v', 'Z2->Z6')]"),
    (((_V,), (_E,)), ((([1, "v", "Z2->Z6"],),),),
     "the boundary of 'e' must be a tuple of (sign, target, spec) tuples, "
     "got ([1, 'v', 'Z2->Z6'],)"),
], ids=["cells", "boundaries", "layer", "cell", "triple", "unhashable-label", "boundary",
        "terms", "term"])
def test_containers_other_than_tuples_rejected(cells, boundaries, message):
    # a file reads every container back as a tuple, which never equals a list
    with pytest.raises(DatumError) as exc:
        GammaCWDatum("edge", cells, boundaries)
    assert str(exc.value) == message


def test_nonsquaring_differential_rejected():
    # d1 @ d2 != 0 must be caught at expansion
    datum = GammaCWDatum(
        "bad",
        _EDGE_CELLS + ((("f", GroupId.trivial()),),),
        (IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])),
    )
    with pytest.raises(ChainComplexError):
        expand(datum)


# -- the SL_3(Z) datum ---------------------------------------------------------------


def test_sl3_stabilisers():
    names = [g.name() for g in sl3_datum().stabilisers()]
    assert names == ["S4", "D6", "D4", "Z2xZ2", "D3", "Z2", "1"]


def test_sl3_bredon_homology():
    assert [str(g) for g in bredon_homology(sl3_datum())] == ["Z^8", "0", "0", "0"]


def test_sl3_euler_characteristic():
    c = expand(sl3_datum())
    assert sum((-1) ** i * r for i, r in enumerate(c.ranks)) == 26 - 28 + 11 - 1
    h = bredon_homology(sl3_datum())
    assert sum((-1) ** i * g.free_rank for i, g in enumerate(h)) == 8


# -- Fuchsian data vs closed forms ---------------------------------------------------


def test_cocompact_chain_matches_closed_form():
    rng = random.Random(31337)
    for _ in range(25):
        g = rng.randint(0, 3)
        periods = tuple(rng.randint(2, 9) for _ in range(rng.randint(0, 4)))
        sig = Signature(g, 0, periods)
        chain = bredon_homology(fuchsian_datum(sig))
        assert chain == bredon_closed_form(sig)


def test_noncocompact_chain_matches_closed_form():
    rng = random.Random(777)
    for _ in range(25):
        g = rng.randint(0, 3)
        s = rng.randint(1, 4)
        periods = tuple(rng.randint(2, 9) for _ in range(rng.randint(0, 4)))
        sig = Signature(g, s, periods)
        chain = bredon_homology(fuchsian_datum(sig))
        assert chain == bredon_closed_form(sig)


def test_noncocompact_datum_is_the_written_out_graph():
    sigs = [MODULAR_SIGNATURE, parse_signature("[0,2;997,991]"),
            parse_signature("[0,3;4,6,12]")]
    sigs += [hecke_signature(p) for p in (2, 3, 13, 17, 19, 23, 97)]
    rng = random.Random(2718)
    for _ in range(50):
        periods = tuple(rng.randint(2, 9) for _ in range(rng.randint(0, 4)))
        sigs.append(Signature(rng.randint(0, 3), rng.randint(1, 4), periods))
    assert len(sigs) == 60
    free = GroupId.trivial()
    for sig in sigs:
        # a free vertex z with 2g + s - 1 loops, and a pendant edge into each cone
        cones = [(f"p{j + 1}", GroupId.cyclic(m)) for j, m in enumerate(sig.periods)]
        loops = [f"l{i + 1}" for i in range(2 * sig.g + sig.s - 1)]
        pendants = [f"d{j + 1}" for j in range(len(cones))]
        terms = [((1, "z", "id"), (-1, "z", "id"))] * len(loops)
        terms += [((1, vertex, f"triv->{cone.name()}"), (-1, "z", "id")) for vertex, cone in cones]
        expected = GammaCWDatum(
            f"fuchsian{sig}",
            ((("z", free), *cones), tuple((label, free) for label in loops + pendants)),
            (tuple(terms),),
        )
        assert fuchsian_datum(sig) == expected


#: `format_cw` of Fuchsian data, pinned literally: two polygons (s = 0), then
#: three graphs (s >= 1)
_FUCHSIAN_FILES = {
    "[0,0;2,3,7]": (
        "name = fuchsian[0,0;2,3,7]\n\n[cells.0]\nz = 1\np1 = Z2\np2 = Z3\np3 = Zm(7)\n\n"
        "[cells.1]\nd1 = 1\nd2 = 1\nd3 = 1\n\n[cells.2]\nw = 1\n\n[boundary.1]\n"
        "d1 = +1 * p1 : triv->Z2, -1 * z : id\nd2 = +1 * p2 : triv->Z3, -1 * z : id\n"
        "d3 = +1 * p3 : triv->Zm(7), -1 * z : id\n\n[boundary.2]\n"
        "w = +1 * d1 : id, -1 * d1 : id, +1 * d2 : id, -1 * d2 : id, +1 * d3 : id, -1 * d3 : id\n"
    ),
    "[2,0;2,2]": (
        "name = fuchsian[2,0;2,2]\n\n[cells.0]\nz = 1\np1 = Z2\np2 = Z2\n\n[cells.1]\n"
        "l1 = 1\nl2 = 1\nl3 = 1\nl4 = 1\nd1 = 1\nd2 = 1\n\n[cells.2]\nw = 1\n\n"
        "[boundary.1]\nl1 = +1 * z : id, -1 * z : id\nl2 = +1 * z : id, -1 * z : id\n"
        "l3 = +1 * z : id, -1 * z : id\nl4 = +1 * z : id, -1 * z : id\n"
        "d1 = +1 * p1 : triv->Z2, -1 * z : id\nd2 = +1 * p2 : triv->Z2, -1 * z : id\n\n"
        "[boundary.2]\nw = +1 * l1 : id, -1 * l1 : id, +1 * l2 : id, -1 * l2 : id, "
        "+1 * l3 : id, -1 * l3 : id, +1 * l4 : id, -1 * l4 : id, +1 * d1 : id, -1 * d1 : id, "
        "+1 * d2 : id, -1 * d2 : id\n"
    ),
    "[1,2;2,3]": (
        "name = fuchsian[1,2;2,3]\n\n[cells.0]\nz = 1\np1 = Z2\np2 = Z3\n\n[cells.1]\n"
        "l1 = 1\nl2 = 1\nl3 = 1\nd1 = 1\nd2 = 1\n\n[boundary.1]\n"
        "l1 = +1 * z : id, -1 * z : id\nl2 = +1 * z : id, -1 * z : id\n"
        "l3 = +1 * z : id, -1 * z : id\nd1 = +1 * p1 : triv->Z2, -1 * z : id\n"
        "d2 = +1 * p2 : triv->Z3, -1 * z : id\n"
    ),
    "[0,4;]": (
        "name = fuchsian[0,4;]\n\n[cells.0]\nz = 1\n\n[cells.1]\nl1 = 1\nl2 = 1\nl3 = 1\n\n"
        "[boundary.1]\nl1 = +1 * z : id, -1 * z : id\nl2 = +1 * z : id, -1 * z : id\n"
        "l3 = +1 * z : id, -1 * z : id\n"
    ),
    "[0,1;2,3]": (
        "name = fuchsian[0,1;2,3]\n\n[cells.0]\nz = 1\np1 = Z2\np2 = Z3\n\n[cells.1]\n"
        "d1 = 1\nd2 = 1\n\n[boundary.1]\nd1 = +1 * p1 : triv->Z2, -1 * z : id\n"
        "d2 = +1 * p2 : triv->Z3, -1 * z : id\n"
    ),
}


@pytest.mark.parametrize("text", _FUCHSIAN_FILES)
def test_fuchsian_datum_files_are_pinned(text):
    assert format_cw(fuchsian_datum(parse_signature(text))) == _FUCHSIAN_FILES[text]


def _count_calls(monkeypatch, module, name) -> list:
    """Replace `module.name` by a wrapper that records each call's arguments."""
    original = getattr(module, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("build", [fuchsian_datum, lifted_fuchsian_datum])
@pytest.mark.parametrize("p", [1993, 1997, 1999])  # periods 2,2,3,3 / 2,2 / 3,3
def test_hecke_datum_checks_each_spec_once(monkeypatch, build, p):
    sig = hecke_signature(p)
    spec_checks = _count_calls(monkeypatch, bredon, "_check_spec")
    datum = build(sig)
    int_checks = _count_calls(monkeypatch, exactlinalg, "_check_int")
    expand(datum)
    assert len(datum.cells[1]) == 2 * sig.g + sig.s - 1 + len(sig.periods)
    assert len(datum.cells[1]) > 300
    assert len(spec_checks) <= 3
    assert int_checks == []


def test_modular_group_datum():
    h = bredon_homology(fuchsian_datum(MODULAR_SIGNATURE))
    assert [str(g) for g in h] == ["Z^4", "0"]


_Z6_VERTEX = ("v", GroupId.cyclic(6))
_Z2_EDGE = ("e", GroupId.cyclic(2), ("v", "Z2->Z6"), ("v", "Z2->Z6"))


# A graph is refused by the rules and messages of its one-dimensional datum.
@pytest.mark.parametrize("name, vertices, edges, message", [
    ("bad", (_Z6_VERTEX, ("v", GroupId.trivial())), (), "duplicate cell labels in dimension 0"),
    ("bad", (_Z6_VERTEX,), (("e", GroupId.cyclic(2), ("v", "Z2->Z6"), ("w", "Z2->Z6")),),
     "boundary of 'e' hits unknown 0-cell 'w'"),
    ("bad", (_Z6_VERTEX,), (("e", GroupId.cyclic(4), ("v", "Z4->Z6"), ("v", "Z4->Z6")),),
     "spec 'Z4->Z6' is not a subgroup inclusion"),
    ("a # b", (_Z6_VERTEX,), (_Z2_EDGE,),
     "datum name 'a # b' must be one line without '#' or outer whitespace"),
    ("bad", (("a b", GroupId.cyclic(6)),), (), "bad cell label 'a b'"),
    ("bad", (_Z6_VERTEX,), (("a b", *_Z2_EDGE[1:]),), "bad cell label 'a b'"),
    ("bad", (_Z6_VERTEX,), (_Z2_EDGE[:3],),
     "the edges must be a tuple of (label, group, head, tail) tuples"),
    ("bad", (_Z6_VERTEX,), ((*_Z2_EDGE[:3], ["v", "Z2->Z6"]),),
     "the edges must be a tuple of (label, group, head, tail) tuples"),
], ids=["duplicate-vertex", "unknown-vertex", "no-embedding", "hash-in-name",
        "vertex-label-with-space", "edge-label-with-space", "three-field-edge", "list-end"])
def test_graph_of_groups_refusals(name, vertices, edges, message):
    with pytest.raises(DatumError) as exc:
        GraphOfGroupsDatum(name, vertices, edges)
    assert str(exc.value) == message


# -- central extensions ----------------------------------------------------------------


def test_lift_doubles_bredon_homology():
    for text in ["[0,1;2,3]", "[0,2;2,2]", "[1,1;3]", "[0,3;]", "[2,2;2,3]"]:
        sig = MODULAR_SIGNATURE if text == "[0,1;2,3]" else None
        from equiko.fuchsian import parse_signature

        sig = parse_signature(text)
        base = bredon_homology(fuchsian_datum(sig))
        lifted = bredon_homology(lifted_fuchsian_datum(sig))
        assert len(lifted) == len(base)
        for b, l in zip(base, lifted):
            assert l.free_rank == 2 * b.free_rank
            assert not l.torsion and not b.torsion


def test_lift_modular_group_values():
    h = bredon_homology(lifted_fuchsian_datum(MODULAR_SIGNATURE))
    assert [str(g) for g in h] == ["Z^8", "0"]


def test_lift_requires_small_periods_and_punctures():
    with pytest.raises(ValueError):
        lifted_fuchsian_datum(Signature(0, 0, (2, 3, 7)))  # cocompact
    with pytest.raises(ValueError):
        lifted_fuchsian_datum(Signature(0, 1, (2, 5)))  # period 5
