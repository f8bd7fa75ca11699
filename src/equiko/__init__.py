"""Exact Bredon homology and equivariant K/KO-homology computations.

The package computes, in exact integer arithmetic, Bredon homology of
classifying spaces for proper actions with coefficients in representation
rings, and derives equivariant K- and KO-homology from it.  Built-in data
cover SL_3(Z) and GL_3(Z), Fuchsian groups of any signature, the Hecke-type
arithmetic groups PSL_2(Z[1/p]) and SL_2(Z[1/p]), and the K/KO-theory of the
reduced C*-algebras in the periodic case p = 11 mod 12.  User-supplied
Gamma-CW complexes are accepted through a small text format (`cwfile`).

Submodules load lazily.  Importing the package puts each submodule into
`sys.modules`, and binds it here, through `importlib.util.LazyLoader`: its
source is compiled and executed when one of its attributes is first read.
So `from . import bredon` costs nothing until `bredon.expand` is read, and
a command compiles only the modules it runs (`equiko sl3` never compiles
`verify`, `cwfile` or `arithmetic_k`).  The names re-exported here are read
from their module on first use, by the module `__getattr__`, and kept in
the package namespace.  `cli` alone loads the usual way, since
`python -m equiko.cli` runs it as `__main__`.  As every other submodule is
bound from the start, executing one never adds a name here.
"""

import sys as _sys
from importlib.util import LazyLoader as _LazyLoader
from importlib.util import find_spec as _find_spec
from importlib.util import module_from_spec as _module_from_spec

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "exactlinalg": ("FinAbGroup", "InputError", "IntChainComplex", "IntMatrix", "all_homology",
                    "direct_sum", "tensor_z2", "tor_z2"),
    "groups": ("FiniteGroupData", "GroupId", "UnsupportedGroupError", "all_tables_coincide",
               "build_group", "character_table", "cyclic_fs_indicator", "fs_indicator",
               "parse_name"),
    "fuchsian": ("MODULAR_SIGNATURE", "Signature", "bredon_closed_form", "hecke_signature",
                 "is_prime", "parse_signature"),
    "bredon": ("DatumError", "GammaCWDatum", "GraphOfGroupsDatum", "bredon_homology", "expand",
               "fuchsian_datum", "lifted_fuchsian_datum", "sl3_datum"),
    "cwfile": ("CWFormatError", "format_cw", "parse_cw"),
    "ko_assembly": ("KO_POINT", "GradedGroup", "collapse_complex", "ko_from_bredon",
                    "kunneth_times_z2"),
    "arithmetic_k": ("class_count_psl", "cstar_k_p11", "cstar_ko_p11", "psl_zp_bredon",
                     "psl_zp_k", "sl_zp_k"),
    "verify": ("verify_all",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

for _module in ("_value", *_EXPORTS):
    _spec = _find_spec(f"{__name__}.{_module}")
    if _spec is None:  # a file missing from the install
        raise ModuleNotFoundError(f"No module named '{__name__}.{_module}'")
    _spec.loader = _LazyLoader(_spec.loader)
    _sys.modules[_spec.name] = globals()[_module] = _module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name):
    """A re-exported name, read from its module; the first read executes it."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_MODULE_OF[name]], name)
    return value


def __dir__():
    """The names bound here and every re-exported name, read or not."""
    return sorted({*globals(), *__all__})
