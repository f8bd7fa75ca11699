"""Assembly of K- and KO-homology from Bredon homology.

For the complexes in this package the Atiyah-Hirzebruch-style spectral
sequence degenerates in one of two ways:

* complex K: when Bredon homology vanishes in degrees >= 3, the sequence
  collapses, K_1 = H_1 and K_0 = H_0 + H_2 up to extension
  (`collapse_complex`, which flags K_0 when the extension may not split);
* real KO: when every stabiliser has coinciding complex, real and
  quaternionic tables and the E^2 page with KO-point coefficients is
  concentrated in column p = 0, that column is the KO-homology
  (`ko_from_bredon`, which checks the stabilisers it is given, then the
  column).

Each guard is enforced by the function that relies on it, never assumed.
The column follows the period-8 coefficients KO_q(point) = Z, Z/2, Z/2, 0,
Z, 0, 0, 0: integral rows repeat H_0, the two Z/2 rows are H_0 tensor Z/2.

`kunneth_times_z2` handles a direct factor of Z/2 acting trivially (ranks
double and each stabiliser G becomes G x Z/2; torsion in the input would
break the shortcut and is rejected).
"""

from __future__ import annotations

from math import gcd

from ._value import Value
from .exactlinalg import FinAbGroup, direct_sum, tensor_z2, tor_z2
from .groups import GroupId, all_tables_coincide


class GradedGroup(Value):
    """A periodic graded family of abelian groups: `groups` holds one period,
    two groups for complex K-homology or eight for KO-homology.

    `extension_ambiguous` lists the degrees (mod the period) where the group
    is only determined up to an abelian extension of the stated factors.
    """

    __slots__ = ("groups", "extension_ambiguous")

    def __init__(self, groups: tuple[FinAbGroup, ...],
                 extension_ambiguous: frozenset[int] = frozenset()):
        groups, extension_ambiguous = tuple(groups), frozenset(extension_ambiguous)  # hashable
        super().__init__(groups, extension_ambiguous)
        if len(groups) not in (2, 8):
            raise ValueError("need 2 groups (period 2) or 8 (period 8)")
        if any(not (0 <= d < len(groups)) for d in extension_ambiguous):
            raise ValueError("ambiguous degrees must lie in one period")

    def entry(self, n: int) -> FinAbGroup:
        return self.groups[n % len(self.groups)]


_Z = FinAbGroup.free(1)
_Z2 = FinAbGroup.of(0, [2])
_0 = FinAbGroup.zero()

#: KO_q(point) for q = 0..7, repeating with period 8.
KO_POINT = GradedGroup((_Z, _Z2, _Z2, _0, _Z, _0, _0, _0))


def collapse_complex(h) -> GradedGroup:
    """Collapsed complex K-homology (K_0, K_1) of a complex with homology `h`
    by degree.

    Only valid when homology vanishes in degrees >= 3; that hypothesis is
    what kills all differentials, and it is checked here.  The collapse
    gives 0 -> H0 -> K0 -> H2 -> 0, and K0 is reported as the split sum
    H0 + H2.  That is K0 when Ext(H2, H0) = 0, the sum of H0/aH0 over the
    torsion orders a of H2: when H2 is free (always in dimension <= 2, where
    H2 is the top cycles), or when H0 is finite with every order prime to
    each order of H2.  Otherwise degree 0 is flagged.

    >>> k = collapse_complex([FinAbGroup.free(6), FinAbGroup.zero(), FinAbGroup.free(1)])
    >>> str(k.entry(0)), k.extension_ambiguous
    ('Z^7', frozenset())
    >>> collapse_complex([FinAbGroup.free(1)] * 2 + [FinAbGroup.of(0, [2])]).extension_ambiguous
    frozenset({0})
    """
    h = list(h)
    for degree, g in enumerate(h):
        if degree >= 3 and not g.is_zero():
            raise ValueError(
                f"collapse needs homology to vanish in degrees >= 3; "
                f"degree {degree} is {g}"
            )
    h0, h1, h2 = (h + [_0] * 3)[:3]
    split = not any(h0.free_rank or any(gcd(a, b) > 1 for b, _ in h0.torsion)
                    for a, _ in h2.torsion)
    return GradedGroup((direct_sum(h0, h2), h1), () if split else {0})


def kunneth_times_z2(h, stabilisers) -> tuple[list[FinAbGroup], list[GroupId]]:
    """Homology and stabilisers after crossing with a trivially-acting direct
    factor of Z/2.

    The classifying space is unchanged but every representation ring
    doubles, so every chain group and every homology rank doubles, and each
    stabiliser G becomes G x Z/2.  The shortcut is only valid torsion-free
    and the input is checked.
    """
    out = []
    for degree, g in enumerate(h):
        if g.torsion:
            raise ValueError(
                f"rank doubling needs torsion-free homology; degree {degree} is {g}"
            )
        out.append(FinAbGroup.free(2 * g.free_rank))
    return out, [GroupId.times_z2(g) for g in stabilisers]


def ko_from_bredon(h, stabilisers) -> GradedGroup:
    """KO-homology from Bredon homology concentrated in degree 0.

    Valid only when every stabiliser has coinciding complex, real and
    quaternionic character tables; each of `stabilisers` is checked before
    the page is read, and the first that fails is named.  The E^2 page is
    E_{p,q} = H_p ⊗ KO_q(pt) + Tor(H_{p-1}, KO_q(pt)); its column 0 gives
    KO_0..7 = H_0, H_0⊗Z/2, H_0⊗Z/2, 0, H_0, 0, 0, 0.  Raises when another
    column is nonzero: a nonzero H_p with p >= 1, or even torsion in H_0,
    whose Tor term lands in column 1.  A second column would feed
    differentials and extension problems this routine has no right to
    ignore.

    >>> str(ko_from_bredon([FinAbGroup.of(1, [3])], [GroupId.trivial()]).entry(1))
    'Z/2'
    """
    for gid in stabilisers:
        if not isinstance(gid, GroupId):
            raise TypeError(f"expected GroupId, got {gid!r}")
        if not all_tables_coincide(gid):
            raise ValueError(
                f"stabiliser {gid.name()} does not have coinciding character "
                "tables; the KO page hypothesis fails"
            )
    h = list(h)
    bad = sorted(
        {p for p, g in enumerate(h) if p > 0 and not g.is_zero()}
        | {p + 1 for p, g in enumerate(h) if not tor_z2(g).is_zero()}
    )
    if bad:
        raise ValueError(
            f"page is not concentrated in column 0 (nonzero columns {bad})"
        )
    h0 = h[0] if h else _0
    mod2 = tensor_z2(h0)
    return GradedGroup((h0, mod2, mod2, _0, h0, _0, _0, _0))
