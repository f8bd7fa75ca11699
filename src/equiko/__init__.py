"""Exact Bredon homology and equivariant K/KO-homology computations.

The package computes, in exact integer arithmetic, Bredon homology of
classifying spaces for proper actions with coefficients in representation
rings, and derives equivariant K- and KO-homology from it.  Built-in data
cover SL_3(Z) and GL_3(Z), Fuchsian groups of any signature, the Hecke-type
arithmetic groups PSL_2(Z[1/p]) and SL_2(Z[1/p]), and the K/KO-theory of the
reduced C*-algebras in the periodic case p = 11 mod 12.  User-supplied
Gamma-CW complexes are accepted through a small text format (`cwfile`).
"""

from types import ModuleType as _ModuleType

from .exactlinalg import (
    FinAbGroup,
    InputError,
    IntChainComplex,
    IntMatrix,
    SNFResult,
    all_homology,
    direct_sum,
    smith_normal_form,
    tensor_z2,
    tor_z2,
)
from .groups import (
    FiniteGroupData,
    GroupId,
    UnsupportedGroupError,
    all_tables_coincide,
    build_group,
    character_table,
    cyclic_fs_indicator,
    fs_indicator,
    parse_name,
)
from .fuchsian import (
    MODULAR_SIGNATURE,
    Signature,
    bredon_closed_form,
    hecke_signature,
    is_prime,
    parse_signature,
)
from .bredon import (
    DatumError,
    GammaCWDatum,
    GraphOfGroupsDatum,
    bredon_homology,
    expand,
    fuchsian_datum,
    lifted_fuchsian_datum,
    sl3_datum,
)
from .cwfile import CWFormatError, format_cw, parse_cw
from .ko_assembly import (
    KO_POINT,
    GradedGroup,
    collapse_ambiguous_degrees,
    collapse_complex,
    ko_from_bredon,
    kunneth_times_z2,
)
from .arithmetic_k import (
    class_count_psl,
    cstar_k_p11,
    cstar_ko_p11,
    psl_zp_bredon,
    psl_zp_k,
    sl_zp_k,
)
from .verify import verify_all

__version__ = "0.1.0"

# Every name the imports above bind, except modules, is public.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
