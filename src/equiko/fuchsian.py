"""Cocompact and finite-covolume Fuchsian signatures and their closed forms.

A signature [g, s; m_1, ..., m_r] records genus, number of cusps, and cone
orders.  For these groups the Bredon homology of the classifying space for
proper actions is concentrated in degrees <= 2 and torsion-free, with ranks
given by closed formulas; the equivariant K-homology then collapses to

    K_0 = H_0 + H_2,    K_1 = H_1.

The closed forms here are the fast path; the chain-level computation via
`bredon.fuchsian_datum` + `bredon.bredon_homology` is the cross-check used
throughout the test suite and the `verify` command.

The congruence subgroups Gamma_0(p) of the modular group (and the modular
group itself, [0, 1; 2, 3]) appear as specific signatures; their torsion
depends only on p mod 12.
"""

from __future__ import annotations

import re
from math import lcm

from ._value import Value
from .exactlinalg import FinAbGroup, InputError, ascii_int


class Signature(Value):
    """A signature [g, s; m_1, ..., m_r]; equality treats periods as a multiset.

    >>> Signature(0, 0, (3, 2)) == parse_signature("[0,0;2,3]")
    True
    """

    __slots__ = ("g", "s", "periods")

    def __init__(self, g: int, s: int, periods: tuple[int, ...] = ()):
        periods = tuple(periods)  # a one-shot iterable is read once
        super().__init__(g, s, periods)
        # 2.0 == 2, but [0,1;2.0,3] reads back as no signature
        if any(type(x) is not int for x in (g, s, *periods)):
            raise InputError(f"signature entries must be ints, got {(g, s, periods)!r}")
        if g < 0 or s < 0:
            raise InputError("genus and cusp count must be nonnegative")
        if any(m < 2 for m in periods):
            raise InputError("periods must be >= 2")

    def __eq__(self, other):
        if not isinstance(other, Signature):
            return NotImplemented
        return (self.g, self.s, sorted(self.periods)) == (
            other.g,
            other.s,
            sorted(other.periods),
        )

    def __hash__(self):
        return hash((self.g, self.s, tuple(sorted(self.periods))))

    def is_cocompact(self) -> bool:
        return self.s == 0

    def orbifold_euler(self) -> tuple[int, int]:
        """The orbifold Euler characteristic chi = 2-2g-s-sum(1-1/m_j), exactly.

        Returned as the integers (L * chi, L), with L the lcm of the periods.

        >>> parse_signature("[0,1;2,3]").orbifold_euler()
        (-1, 6)
        """
        scale = lcm(*self.periods)
        chi = (2 - 2 * self.g - self.s - len(self.periods)) * scale
        return chi + sum(scale // m for m in self.periods), scale

    def is_hyperbolic(self) -> bool:
        """Whether the orbifold Euler characteristic is < 0.

        Only hyperbolic signatures belong to Fuchsian groups.

        >>> [parse_signature(t).is_hyperbolic() for t in ("[0,0;2,3,7]", "[0,0;2,3,6]")]
        [True, False]
        """
        return self.orbifold_euler()[0] < 0

    def __str__(self) -> str:
        return f"[{self.g},{self.s};{','.join(str(m) for m in self.periods)}]"

    __repr__ = __str__


_SIGNATURE_RE = re.compile(r"\[\s*([0-9]+)\s*,\s*([0-9]+)\s*;\s*((?:[0-9]+(?:\s*,\s*[0-9]+)*)?)\s*\]")


def parse_signature(text: str) -> Signature:
    """Parse "[g,s;m1,m2,...]" (empty period list: "[g,s;]").

    >>> parse_signature("[1, 2; 2, 2, 3]")
    [1,2;2,2,3]
    """
    m = _SIGNATURE_RE.fullmatch(text.strip())
    if not m:
        raise InputError(f"malformed signature {text!r}; expected [g,s;m1,m2,...]")
    periods = tuple(map(ascii_int, re.findall("[0-9]+", m.group(3))))
    return Signature(ascii_int(m.group(1)), ascii_int(m.group(2)), periods)


# ---------------------------------------------------------------------------
# Closed forms


def bredon_closed_form(sig: Signature) -> list[FinAbGroup]:
    """Bredon homology (with representation-ring coefficients), closed form.

    Degree 0 has rank 1 + sum of (m_j - 1); degree 1 has rank 2g in the
    cocompact case and 2g + s - 1 otherwise; degree 2 is Z exactly when the
    group is cocompact.  Everything is torsion-free.
    """
    h0 = FinAbGroup.free(1 + sum(m - 1 for m in sig.periods))
    if sig.is_cocompact():
        return [h0, FinAbGroup.free(2 * sig.g), FinAbGroup.free(1)]
    return [h0, FinAbGroup.free(2 * sig.g + sig.s - 1)]


# ---------------------------------------------------------------------------
# Congruence subgroups of the modular group

#: Signature of the modular group PSL_2(Z) itself.
MODULAR_SIGNATURE = Signature(0, 1, (2, 3))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 2**64.

    Larger n raise ValueError: beyond that range the base set is not proven,
    and 3317044064679887385961981 is a composite that passes every base.
    """
    if n < 2:
        return False
    if n >= 2**64:
        raise ValueError(f"{n} is outside the proven range n < 2**64 of the primality test")
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def hecke_signature(p: int) -> Signature:
    """Signature [g, 2; 2^e2, 3^e3] of Gamma_0(p) as a Fuchsian group, p prime.

    Gamma_0(p) has index p + 1 in the modular group and two cusps, 0 and
    infinity.  It has e2 = 1 + (-1/p) elliptic points of order 2 and
    e3 = 1 + (-3/p) of order 3, and genus g = (p + 1 - 3 e2 - 4 e3) / 12 by
    Riemann-Hurwitz (Shimura, Introduction to the Arithmetic Theory of
    Automorphic Functions, Prop. 1.40 and 1.43).

    >>> str(hecke_signature(13)), str(hecke_signature(23))
    ('[0,2;2,2,3,3]', '[2,2;]')
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    e2 = {1: 2, 2: 1, 3: 0}[p % 4]
    e3 = {0: 1, 1: 2, 2: 0}[p % 3]
    return Signature((p + 1 - 3 * e2 - 4 * e3) // 12, 2, (2,) * e2 + (3,) * e3)
