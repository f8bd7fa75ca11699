"""K-homology for PSL_2(Z[1/p]), SL_2(Z[1/p]) and associated C*-algebras.

PSL_2(Z[1/p]) is the amalgam of two copies of the modular group over
Gamma_0(p); a Mayer-Vietoris argument turns the closed-form Bredon homology
of the pieces into the Bredon homology of the amalgam:

* H_2 is the degree-1 homology of Gamma_0(p),
* H_0 is free on the conjugacy classes of finite-order elements,
* the rank of H_1 is forced by exactness of
  0 -> H_1(Gamma) -> H_0(Gamma_0(p)) -> Z^8 -> H_0(Gamma) -> 0,
  the Z^8 collecting degree-0 homology of the two modular-group vertices.

Every group in this calculus is torsion-free by construction: its inputs
are the free groups of `fuchsian.bredon_closed_form`, and `verify`'s
`psl2zp` and `sl2zp-doubling` checks refuse torsion.  SL_2(Z[1/p])
doubles everything through the central Z/2 extension.  For p = 11 mod 12
the group acts on a tree with torsion-free cusp data, the quotient
classifying space is homotopy equivalent to a wedge of (p+7)/6 two-spheres
plus cones on the four finite subgroup classes, and the K- and KO-groups
of the reduced group C*-algebras assemble summand by summand.
"""

from __future__ import annotations

from ._value import Value
from .exactlinalg import FinAbGroup, direct_sum
from .fuchsian import Signature, bredon_closed_form, hecke_signature
from .ko_assembly import KO_POINT, GradedGroup, collapse_complex


class ClassCount(Value):
    """Conjugacy classes of finite-order elements in PSL_2(Z[1/p])."""

    __slots__ = ("identity", "order2", "order3")

    @property
    def total(self) -> int:
        return self.identity + self.order2 + self.order3


def class_count_psl(p: int) -> ClassCount:
    """Count finite-order classes from the Gamma_0(p) signature.

    Amalgamating over Gamma_0(p) fuses classes of the two modular-group
    factors exactly when the corresponding torsion survives in Gamma_0(p):
    a period 2 fuses the two order-2 classes into one, its absence leaves
    two; periods 3 fuse the four order-3 classes (two per factor) into two,
    their absence leaves four.

    >>> class_count_psl(23)
    ClassCount(identity=1, order2=2, order3=4)
    """
    return _class_count(hecke_signature(p))


def _class_count(edge: Signature) -> ClassCount:
    # `class_count_psl` from the signature `edge` of Gamma_0(p)
    order2 = 1 if 2 in edge.periods else 2
    order3 = 2 if 3 in edge.periods else 4
    return ClassCount(1, order2, order3)


def psl_zp_bredon(p: int) -> list[FinAbGroup]:
    """Bredon homology of PSL_2(Z[1/p]) in degrees 0..2, via Mayer-Vietoris.

    >>> [str(g) for g in psl_zp_bredon(13)]
    ['Z^4', 'Z^3', 'Z']
    """
    edge = hecke_signature(p)
    h0_edge, h1_edge = bredon_closed_form(edge)
    total = _class_count(edge).total
    # Exactness: 0 -> H_1 -> H_0(edge) -> Z^4 + Z^4 -> H_0 -> 0.  The H_1
    # rank is e2 + 2 e3 + order2 + order3 - 6, which is 0, 1, 2 or 3.
    return [
        FinAbGroup.free(total),
        FinAbGroup.free(h0_edge.free_rank - 8 + total),
        FinAbGroup.free(h1_edge.free_rank),
    ]


def psl_zp_k(p: int) -> GradedGroup:
    """Equivariant K-homology (K_0, K_1) of PSL_2(Z[1/p]) (collapsed assembly).

    >>> [str(g) for g in psl_zp_k(17).groups]
    ['Z^9', 'Z']
    """
    return collapse_complex(psl_zp_bredon(p))


def sl_zp_k(p: int) -> GradedGroup:
    """Equivariant K-homology of SL_2(Z[1/p]): the central Z/2 doubles every
    group, and the degrees flagged for PSL_2(Z[1/p]) stay flagged.

    >>> [str(g) for g in sl_zp_k(13).groups]
    ['Z^10', 'Z^6']
    """
    k = psl_zp_k(p)
    return GradedGroup([direct_sum(g, g) for g in k.groups], k.extension_ambiguous)


#: For p = 11 mod 12, Gamma_0(p) has no elliptic points (e2 = e3 = 0), so
#: no classes fuse: two involution classes and two inverse pairs of order-3
#: classes.  These are the "four finite subgroup classes" of the module
#: docstring, two Z/2 and two Z/3.
_P11_Z2_CLASSES = 2
_P11_Z3_CLASSES = 2


def _require_11_mod_12(p: int) -> int:
    # hecke_signature raises "{p} is not prime" before the residue is checked
    spheres = bredon_closed_form(hecke_signature(p))[1].free_rank
    if p % 12 != 11:
        raise ValueError(
            f"the C*-algebra decomposition needs p = 11 mod 12, got p = {p}"
        )
    return spheres  # the wedge has this many 2-spheres


def cstar_k_p11(p: int) -> GradedGroup:
    """K-theory of the reduced C*-algebra of PSL_2(Z[1/p]), p = 11 mod 12.

    Summands: reduced K of C*_r(Z/2) (rank 1) per involution class, reduced
    K of C*_r(Z/3) (rank 2) per Z/3 class, and K of a wedge of b 2-spheres
    (rank 1 + b), with b = (p+7)/6; odd K vanishes throughout.

    >>> str(cstar_k_p11(11).entry(0))
    'Z^10'
    """
    b = _require_11_mod_12(p)
    rank = _P11_Z2_CLASSES * 1 + _P11_Z3_CLASSES * 2 + 1 + b
    return GradedGroup((FinAbGroup.free(rank), FinAbGroup.zero()))


def cstar_ko_p11(p: int) -> GradedGroup:
    """KO-theory of the reduced real C*-algebra, p = 11 mod 12.

    Degreewise sum of: one KO(point) per Z/2 class, one complex-periodicity
    block (Z, 0, Z, 0, ...) per Z/3 class (the reduced real group algebra of
    Z/3 is a complex field), and KO_n(pt) + KO_{n-2}(pt)^b for the wedge of
    b 2-spheres.  In degrees 1, 3 and 4 mod 8 the result is only determined
    up to extension of the listed factors, and is flagged as such.
    """
    b = _require_11_mod_12(p)
    groups = []
    for n in range(8):
        # (summand, copies): the Z/2 classes and the trivial group, the Z/3
        # classes, and the spheres.  Every torsion order of KO_*(pt) is 2, so
        # the sum is Z^rank + (Z/2)^twos, built from the counts alone.
        summands = (
            (KO_POINT.entry(n), _P11_Z2_CLASSES + 1),
            (FinAbGroup.free(1 - n % 2), _P11_Z3_CLASSES),
            (KO_POINT.entry(n - 2), b),
        )
        rank = sum(g.free_rank * k for g, k in summands)
        twos = sum(copies * k for g, k in summands for _, copies in g.torsion)
        groups.append(FinAbGroup(rank, ((2, twos),) if twos else ()))
    return GradedGroup(tuple(groups), frozenset({1, 3, 4}))
