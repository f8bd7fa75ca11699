"""Every `verify` check can fail: a plausible wrong library function per check.

Each mutant replaces one function of the library, never a check, and runs
through `verify_all` as shipped.  The three `hecke_signature` mutants change
only primes p > 60, where no table row reaches; `hecke` compares two
computations from the same signature and passes them, and `gauss-bonnet`
must catch them.  The genus mutant for p = 11 (mod 12) replaces
`hecke_signature` in both modules that read it, and `cstar` and
`sl2zp-doubling` must catch it.  Each mutant returns what the function it
replaces returns, so its check fails on a wrong value, an `AssertionError`,
not on a type or shape it cannot read.  The `expand` mutants, and two of
the `_eliminate` mutants, are built from their function's own source.  The
`expand` mutant that forgets signs is refused by `IntChainComplex` before
any compare, so it has its own test.
"""

import inspect

import pytest

from equiko import arithmetic_k, bredon, cli, exactlinalg, fuchsian, groups, ko_assembly, verify
from equiko.exactlinalg import FinAbGroup, direct_sum
from equiko.fuchsian import Signature
from equiko.groups import GroupId
from equiko.ko_assembly import GradedGroup

_smith_factors = exactlinalg._smith_factors
_eliminate = exactlinalg._eliminate
_hecke_signature = fuchsian.hecke_signature
_bredon_closed_form = fuchsian.bredon_closed_form
_kunneth_times_z2 = ko_assembly.kunneth_times_z2
_psl_zp_k = arithmetic_k.psl_zp_k
_fuchsian_datum = bredon.fuchsian_datum
_expand = bredon.expand


def _last_factor_dropped(m):
    return _smith_factors(m)[:-1]


def _factors_doubled(m):
    return tuple(2 * d for d in _smith_factors(m))


def _torsion_forgotten(m):
    # every built-in datum has unit factors only, so only the snf oracle sees this
    return tuple(1 for _ in _smith_factors(m))


def _border_left_alone(a, nrows, ncols):
    # the column operations never reach the rows below the block, so
    # `_smith_normal_form` returns the identity as its right transform
    border = [row[:] for row in a[nrows:]]
    factors = _eliminate(a, nrows, ncols)
    a[nrows:] = border
    return factors


def _kernel_mutant(name, old, new):
    """`exactlinalg._eliminate` built from its own source with `old` replaced by `new`."""
    source = inspect.getsource(_eliminate)
    assert source.count(old) == 1
    namespace = dict(vars(exactlinalg))
    exec(source.replace(old, new), namespace)
    kernel = namespace["_eliminate"]
    kernel.__name__ = name
    return kernel


# the divisibility repair skipped: a pivot that fails to divide the rest of
# the block stays, so [[2, 0], [0, 3]] keeps the factors (2, 3), with sound
# transforms
_divisibility_unrepaired = _kernel_mutant("_divisibility_unrepaired", "if offender is None:",
                                          "if True:")
# the pivot scan stops after its first row unless that row holds a unit, so
# a block whose first row is zero, as in [[0, 0], [0, 5]], gets no factors
_scan_stops_at_zero_row = _kernel_mutant(
    "_scan_stops_at_zero_row", "            if best_abs == 1:\n                break\n",
    "            if best_abs != 1:\n                break\n")


def _expand_mutant(name, old, new):
    """`bredon.expand` built from its own source with `old` replaced by `new`."""
    source = inspect.getsource(_expand)
    assert source.count(old) == 1
    namespace = dict(vars(bredon))
    exec(source.replace(old, new), namespace)
    expand = namespace["expand"]
    expand.__name__ = name
    return expand


# a term's character j reaches the target's characters 0, d, 2d, ...
_expand_cosets_from_zero = _expand_mutant("_expand_cosets_from_zero", "range(j, m, d)",
                                          "range(0, m, d)")
# each entry lands in the row of the source's character, not the target's
_expand_row_by_source_character = _expand_mutant("_expand_row_by_source_character",
                                                 "(row_off + k)", "(row_off + j)")
# each cell takes one column, whatever its rank
_expand_one_column_per_cell = _expand_mutant("_expand_one_column_per_cell", "col_off += d",
                                             "col_off += 1")
# every term adds +1: the cocompact polygon's face no longer cancels
_expand_sign_forgotten = _expand_mutant("_expand_sign_forgotten", "+= sign", "+= 1")


def _tensor_z2_forgotten(g):
    return g


def _every_cyclic_character_real(m, j):
    return 1


def _indicator_without_power_map(g, chi):
    # chi summed over the classes themselves, not over their squares
    return sum(len(cls) * chi[ci] for ci, cls in enumerate(g.classes)) // g.order


def _kunneth_without_doubling(h, stabilisers):
    return list(h), _kunneth_times_z2(h, stabilisers)[1]


def _closed_form_one_loop_more(sig):
    h = _bredon_closed_form(sig)
    return [h[0], FinAbGroup.free(h[1].free_rank + 1)] + h[2:]


def _cocompact_h1_one_more(sig):
    # only cocompact signatures reach the changed branch; every Gamma_0(p) has cusps
    h = _bredon_closed_form(sig)
    if sig.is_cocompact():
        h[1] = FinAbGroup.free(h[1].free_rank + 1)
    return h


def _classes_fused_backwards(edge):
    return arithmetic_k.ClassCount(1, 2 if 2 in edge.periods else 1,
                                   4 if 3 in edge.periods else 2)


def _collapse_without_h2(h):
    return GradedGroup(h[:2])


def _sl_doubles_k0_only(p):
    k0, k1 = _psl_zp_k(p).groups
    return GradedGroup((direct_sum(k0, k0), k1))


def _psl_k0_one_more(p):
    k0, k1 = _psl_zp_k(p).groups
    return GradedGroup((FinAbGroup.free(k0.free_rank + 1), k1))


def _lift_without_central_edges(sig):
    # the cone stabilisers lift to Z/2m, but the free vertex and the edges
    # stay trivial
    cones = [GroupId.cyclic(2 * m) for m in sig.periods]
    loops = 2 * sig.g + sig.s - 1
    vertices, edges, terms = bredon._fuchsian_graph(loops, GroupId.trivial(), cones, "triv")
    return bredon.GammaCWDatum(f"lift{sig}", (vertices, edges), (terms,))


def _spheres_from_p_plus_1(p):
    return (p + 1) // 6  # b = (p + 7) / 6


def _polygon_without_face(sig):
    datum = _fuchsian_datum(sig)
    return bredon.GammaCWDatum(datum.name, datum.cells[:2], datum.boundaries[:1])


def _above_60(change):
    return lambda p: change(_hecke_signature(p)) if p > 60 else _hecke_signature(p)


#: The three `hecke_signature` mutants: one genus more, the 3-periods
#: dropped, one 2-period more.
SWEEP_MUTANTS = {
    "genus_plus_one": _above_60(lambda s: Signature(s.g + 1, s.s, s.periods)),
    "no_3_periods": _above_60(lambda s: Signature(s.g, s.s, tuple(m for m in s.periods if m != 3))),
    "extra_2_period": _above_60(lambda s: Signature(s.g, s.s, s.periods + (2,))),
}


#: (check that fails, module, function replaced, mutant), with the mutant's name as id
MUTANTS = [
    pytest.param(*mutant, id=mutant[3].__name__.lstrip("_")) for mutant in [
        ("sl3-bredon", exactlinalg, "_smith_factors", _last_factor_dropped),
        ("sl3-bredon", exactlinalg, "_smith_factors", _factors_doubled),
        ("sl3-ko", ko_assembly, "tensor_z2", _tensor_z2_forgotten),
        ("gl3-ko", ko_assembly, "kunneth_times_z2", _kunneth_without_doubling),
        ("character-tables", groups, "cyclic_fs_indicator", _every_cyclic_character_real),
        ("involution-counts", groups, "fs_indicator", _indicator_without_power_map),
        ("hecke", fuchsian, "bredon_closed_form", _closed_form_one_loop_more),
        ("hecke", fuchsian, "bredon_closed_form", _cocompact_h1_one_more),
        ("class-counts", arithmetic_k, "_class_count", _classes_fused_backwards),
        ("psl2zp", arithmetic_k, "collapse_complex", _collapse_without_h2),
        ("sl2zp-doubling", arithmetic_k, "sl_zp_k", _sl_doubles_k0_only),
        ("sl2zp-doubling", arithmetic_k, "psl_zp_k", _psl_k0_one_more),
        ("sl2zp-doubling", bredon, "lifted_fuchsian_datum", _lift_without_central_edges),
        ("sl2zp-doubling", bredon, "expand", _expand_cosets_from_zero),
        ("sl2zp-doubling", bredon, "expand", _expand_one_column_per_cell),
        ("hecke", bredon, "expand", _expand_row_by_source_character),
        ("cstar", arithmetic_k, "_require_11_mod_12", _spheres_from_p_plus_1),
        ("snf", exactlinalg, "_eliminate", _border_left_alone),
        ("snf", exactlinalg, "_eliminate", _divisibility_unrepaired),
        ("snf", exactlinalg, "_eliminate", _scan_stops_at_zero_row),
        ("snf", exactlinalg, "_smith_factors", _torsion_forgotten),
        ("gauss-bonnet", bredon, "fuchsian_datum", _polygon_without_face),
    ]
] + [pytest.param("gauss-bonnet", fuchsian, "hecke_signature", mutant, id=f"hecke_signature_{name}")
     for name, mutant in SWEEP_MUTANTS.items()]


def test_every_check_has_a_mutant():
    assert {m.values[0] for m in MUTANTS} == {r.name for r in verify.verify_all(2, 30)}


@pytest.mark.parametrize("check, module, name, mutant", MUTANTS)
def test_mutant_fails_its_check(monkeypatch, check, module, name, mutant):
    monkeypatch.setattr(module, name, mutant)
    results = verify.verify_all(2, 70)  # 61 and 67 reach the sweep mutants
    failed = {r.name: r.detail for r in results if not r.passed}
    assert check in failed
    # on a wrong value, not on a mutant of the wrong type or shape
    assert failed[check].startswith("AssertionError: ")


def test_unrepaired_kernel_fails_snf_on_the_chain(monkeypatch):
    monkeypatch.setattr(exactlinalg, "_eliminate", _divisibility_unrepaired)
    snf = {r.name: r for r in verify.verify_all(2, 30)}["snf"]
    assert not snf.passed
    assert snf.detail.startswith("AssertionError: SNF factors (")
    assert snf.detail.endswith(") are not a positive divisibility chain")


def test_sign_forgotten_fails_hecke_on_the_polygon(monkeypatch):
    # the one wrong-value mutant whose chain is refused before any compare:
    # the [0,0;2,3,7] face's terms no longer cancel
    monkeypatch.setattr(bredon, "expand", _expand_sign_forgotten)
    failed = {r.name: r.detail for r in verify.verify_all(2, 30) if not r.passed}
    assert failed == {"hecke": "ChainComplexError: composite of differentials "
                               "through degree 1 is nonzero"}


def _genus_plus_one_at_11_mod_12(p):
    sig = _hecke_signature(p)
    return Signature(sig.g + 1, sig.s, sig.periods) if p % 12 == 11 else sig


def test_cstar_genus_mutant_fails_cstar_and_sl_doubling(monkeypatch):
    # b = 2g + 1 moves with the genus in both modules that read the signature;
    # cstar reads its expected b off p, and sl2zp-doubling its K off the table
    for module in (fuchsian, arithmetic_k):
        monkeypatch.setattr(module, "hecke_signature", _genus_plus_one_at_11_mod_12)
    failed = {r.name for r in verify.verify_all(2, 30) if not r.passed}
    assert {"cstar", "sl2zp-doubling"} <= failed


@pytest.mark.parametrize("mutant", SWEEP_MUTANTS.values(), ids=SWEEP_MUTANTS.keys())
def test_sweep_mutant_fails_gauss_bonnet_at_61(monkeypatch, capsys, mutant):
    monkeypatch.setattr(fuchsian, "hecke_signature", mutant)
    code = cli.main(["verify", "--primes", "2..200"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 3
    assert [line for line in lines if not line.startswith("PASS")] == [
        lines[-2], "11/12 checks passed"]
    assert lines[-2].startswith("FAIL gauss-bonnet: AssertionError: 6 chi_orb(Gamma_0(61)) ")
