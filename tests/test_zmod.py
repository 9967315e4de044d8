import random

import pytest

from griforge import Modulus, centered_reduce, is_prime
from griforge.errors import ModulusMismatch, NotAUnit
from griforge.zmod import MAX_MODULUS_BITS, PSI_13


def test_centered_reduce_examples():
    m8 = Modulus(2, 3)
    assert centered_reduce(5, m8).value == -3
    assert centered_reduce(4, m8).value == 4  # right endpoint included
    assert centered_reduce(-5, m8).value == 3


def test_centered_reduce_random():
    rng = random.Random(0)
    for _ in range(300):
        p, s = rng.choice([(2, 5), (3, 3), (5, 2), (7, 1), (11, 2)])
        m = Modulus(p, s)
        x = rng.randrange(-(10**9), 10**9)
        r = centered_reduce(x, m)
        assert (r.value - x) % m.m == 0
        assert -m.m < 2 * r.value <= m.m


def test_inv_examples():
    assert centered_reduce(3, Modulus(2, 3)).inv().value == 3  # 3*3 = 9 = 1 mod 8
    assert centered_reduce(1, Modulus(7, 2)).inv().value == 1
    with pytest.raises(NotAUnit):
        centered_reduce(2, Modulus(2, 3)).inv()


def test_inv_roundtrip_random():
    rng = random.Random(1)
    checked = 0
    while checked < 200:
        m = Modulus(rng.choice([2, 3, 5, 7, 13]), rng.randrange(1, 5))
        a = centered_reduce(rng.randrange(1, m.m), m)
        if not a.is_unit():
            continue
        assert (a * a.inv()).value == 1
        checked += 1


def test_arith_examples():
    m8 = Modulus(2, 3)
    three = centered_reduce(3, m8)
    assert (three + three).value == -2
    assert (three * three).value == 1
    assert (centered_reduce(0, m8) - centered_reduce(1, m8)).value == -1


def test_ring_axioms_random_triples():
    rng = random.Random(2)
    m = Modulus(3, 3)
    for _ in range(200):
        a, b, c = (centered_reduce(rng.randrange(m.m), m) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        centered_reduce(1, Modulus(2, 3)) + centered_reduce(1, Modulus(3, 2))


def test_modulus_validation():
    with pytest.raises(ValueError, match="prime"):
        Modulus(4, 1)
    with pytest.raises(ValueError):
        Modulus(2, 0)
    assert Modulus(2, MAX_MODULUS_BITS).m == 2**MAX_MODULUS_BITS
    with pytest.raises(ValueError, match="too large"):
        Modulus(2, MAX_MODULUS_BITS + 1)
    with pytest.raises(ValueError, match="too large"):
        Modulus(3, 10**9)  # refused before 3**s is computed


def test_is_prime_covers_mr_range():
    assert is_prime(2) and is_prime(97) and is_prime(1_000_003)
    assert is_prime(2**61 - 1)  # above the trial-division bound
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**61 + 1)
    # psi_12: the least strong pseudoprime to the bases 2..37, caught by 41
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441 and not is_prime(psi_12)
    with pytest.raises(ValueError, match="prime"):
        Modulus(psi_12, 1)
    # psi_13 fools the bases 2..41, so Modulus refuses p from there on
    assert PSI_13 == 1287836182261 * 2575672364521 and is_prime(PSI_13)
    with pytest.raises(ValueError, match="below"):
        Modulus(PSI_13, 1)
