"""Fuchsian signatures, closed-form homology, and Hecke-type signatures."""

import random
from fractions import Fraction

import pytest

from equiko.exactlinalg import InputError
from equiko.fuchsian import (
    MODULAR_SIGNATURE,
    Signature,
    bredon_closed_form,
    hecke_signature,
    is_prime,
    parse_signature,
)
from equiko.ko_assembly import collapse_complex


# -- signatures ------------------------------------------------------------------


def test_parse_and_render():
    assert parse_signature("[0,0;2,3,7]") == Signature(0, 0, (2, 3, 7))
    assert parse_signature("[2,1;]") == Signature(2, 1, ())
    assert parse_signature(" [ 1 , 2 ; 3 , 3 ] ") == Signature(1, 2, (3, 3))
    assert str(Signature(0, 1, (2, 3))) == "[0,1;2,3]"
    assert str(Signature(3, 0, ())) == "[3,0;]"


def test_parse_rejects_garbage():
    for bad in ["", "[0,0]", "[0;2,3]", "[a,0;2]", "0,0;2,3", "[0,0;2,x]"]:
        with pytest.raises(ValueError):
            parse_signature(bad)


@pytest.mark.parametrize("text", ["[0,0;٢,3,7]", "[٠,0;2,3,7]", "[0,١;2,3]"])
def test_parse_rejects_non_ascii_digits(text):
    # \d and int() read '٢' as 2
    with pytest.raises(ValueError, match="malformed signature"):
        parse_signature(text)


def test_periods_are_a_multiset():
    assert Signature(0, 1, (3, 2)) == Signature(0, 1, (2, 3))
    assert hash(Signature(0, 1, (3, 2))) == hash(Signature(0, 1, (2, 3)))
    assert Signature(0, 1, (2, 2)) != Signature(0, 1, (2,))


def test_period_validation():
    with pytest.raises(ValueError):
        Signature(0, 0, (1,))  # periods must be >= 2
    with pytest.raises(ValueError):
        Signature(-1, 0, ())


@pytest.mark.parametrize("g, s, periods", [
    (0, 1, (2.0, 3)), (0.0, 1, (2, 3)), (0, True, (2, 3)), (0, 1, (True, 3)),
], ids=["float-period", "float-genus", "bool-cusps", "bool-period"])
def test_signature_refuses_non_int_entries(g, s, periods):
    # [0,1;2.0,3] would print as text that parse_signature refuses
    with pytest.raises(InputError, match="must be ints"):
        Signature(g, s, periods)


def test_periods_from_a_one_shot_iterable():
    sig = Signature(0, 0, (m for m in (2, 3, 7)))
    assert sig.periods == (2, 3, 7)
    assert str(sig) == "[0,0;2,3,7]"
    with pytest.raises(ValueError):
        Signature(0, 0, (m for m in (2, 1)))


def test_is_hyperbolic_at_the_euclidean_boundary():
    # orbifold Euler characteristic exactly 0: the euclidean signatures
    for text in ("[0,0;2,3,6]", "[0,0;2,4,4]", "[0,0;3,3,3]", "[0,0;2,2,2,2]",
                 "[1,0;]", "[0,2;]", "[0,1;2,2]"):
        assert not parse_signature(text).is_hyperbolic(), text
    for text in ("[0,0;2,3,7]", "[0,0;2,4,5]", "[0,1;2,3]", "[0,3;]", "[1,1;]", "[2,0;]"):
        assert parse_signature(text).is_hyperbolic(), text


def test_is_hyperbolic_against_fractions():
    rng = random.Random(31)
    for _ in range(300):
        sig = Signature(rng.randint(0, 2), rng.randint(0, 3),
                        tuple(rng.randint(2, 9) for _ in range(rng.randint(0, 5))))
        chi = 2 - 2 * sig.g - sig.s - sum(1 - Fraction(1, m) for m in sig.periods)
        assert sig.is_hyperbolic() == (chi < 0), sig


def test_modular_signature():
    assert MODULAR_SIGNATURE == Signature(0, 1, (2, 3))


# -- closed forms ------------------------------------------------------------------


def test_closed_form_triangle_group():
    h = bredon_closed_form(parse_signature("[0,0;2,3,7]"))
    assert [str(g) for g in h] == ["Z^10", "0", "Z"]


def test_closed_form_surface_group():
    h = bredon_closed_form(parse_signature("[2,0;]"))
    assert [str(g) for g in h] == ["Z", "Z^4", "Z"]


def test_closed_form_with_punctures():
    h = bredon_closed_form(parse_signature("[1,2;2,2]"))
    # noncocompact: two dimensions only
    assert [str(g) for g in h] == ["Z^3", "Z^3"]


def test_closed_form_modular_group():
    h = bredon_closed_form(MODULAR_SIGNATURE)
    assert [str(g) for g in h] == ["Z^4", "0"]


def test_equivariant_k_from_closed_form():
    k0, k1 = collapse_complex(bredon_closed_form(parse_signature("[0,0;2,3,7]"))).groups
    assert (str(k0), str(k1)) == ("Z^11", "0")
    k0, k1 = collapse_complex(bredon_closed_form(MODULAR_SIGNATURE)).groups
    assert (str(k0), str(k1)) == ("Z^4", "0")
    k0, k1 = collapse_complex(bredon_closed_form(parse_signature("[2,3;4,5]"))).groups
    # H0 = 1 + 3 + 4 = Z^8, H1 = Z^(2*2+3-1) = Z^6
    assert (str(k0), str(k1)) == ("Z^8", "Z^6")


def test_closed_form_random_rank_bookkeeping():
    rng = random.Random(5150)
    for _ in range(60):
        g = rng.randint(0, 3)
        s = rng.randint(0, 4)
        periods = tuple(rng.randint(2, 9) for _ in range(rng.randint(0, 4)))
        sig = Signature(g, s, periods)
        h = bredon_closed_form(sig)
        assert h[0].free_rank == 1 + sum(m - 1 for m in periods)
        if s == 0:
            assert len(h) == 3 and str(h[2]) == "Z"
            assert h[1].free_rank == 2 * g
        else:
            assert len(h) == 2
            assert h[1].free_rank == 2 * g + s - 1
        assert all(not x.torsion for x in h)


# -- Hecke-type signatures ----------------------------------------------------------


def test_hecke_signature_by_residue_class():
    # [g, 2; 2^e2, 3^e3] with e2 = 1 + (-1/p), e3 = 1 + (-3/p)
    assert str(hecke_signature(2)) == "[0,2;2]"
    assert str(hecke_signature(3)) == "[0,2;3]"
    assert str(hecke_signature(13)) == "[0,2;2,2,3,3]"   # 13 = 1 mod 12
    assert str(hecke_signature(17)) == "[1,2;2,2]"       # 17 = 5 mod 12
    assert str(hecke_signature(19)) == "[1,2;3,3]"       # 19 = 7 mod 12
    assert str(hecke_signature(23)) == "[2,2;]"          # 23 = 11 mod 12
    assert str(hecke_signature(11)) == "[1,2;]"
    assert str(hecke_signature(37)) == "[2,2;2,2,3,3]"


def test_hecke_signature_rejects_composites():
    for n in [1, 4, 15, 51, 91]:
        with pytest.raises(ValueError):
            hecke_signature(n)


def test_hecke_bredon_table():
    expected = {
        2: ("Z^2", "Z"),
        3: ("Z^3", "Z"),
        13: ("Z^7", "Z"),
        17: ("Z^3", "Z^3"),
        19: ("Z^5", "Z^3"),
        23: ("Z", "Z^5"),
    }
    for p, (h0, h1) in expected.items():
        a, b = bredon_closed_form(hecke_signature(p))
        assert (str(a), str(b)) == (h0, h1)


def test_hecke_genus_matches_published_x0_genera():
    # genera of the modular curves X_0(p), independent of the formula
    published = {2: 0, 3: 0, 5: 0, 7: 0, 13: 0, 11: 1, 23: 2, 37: 2, 47: 4, 97: 7, 101: 8}
    for p, genus in published.items():
        assert hecke_signature(p).g == genus, p
        assert hecke_signature(p).s == 2, p


# -- primality --------------------------------------------------------------------


def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        k = 2
        while k * k <= n:
            if n % k == 0:
                return False
            k += 1
        return True

    for n in range(0, 2000):
        assert is_prime(n) == trial(n)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)
    assert is_prime(10**18 + 9)
    assert not is_prime(10**18 + 7)
    assert is_prime(2**64 - 59)  # the largest prime below 2**64


def test_is_prime_refuses_beyond_proven_range():
    # psi_13 = 1287836182261 * 2575672364521 is a strong pseudoprime to all
    # twelve bases; the base set is only proven below 2**64
    for n in [2**64, 2**64 + 13, 3317044064679887385961981]:
        with pytest.raises(ValueError, match="2\\*\\*64"):
            is_prime(n)
