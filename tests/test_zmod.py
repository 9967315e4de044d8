import random
from itertools import takewhile

import pytest

from griforge import (
    ChiBeta,
    CompositeCtx,
    Modulus,
    Poly,
    RingCtx,
    centered,
    eval_poly,
    invmod,
    is_prime,
    random_monic_irreducible,
)
from griforge.errors import ModulusMismatch
from griforge.zmod import MAX_MODULUS_BITS, PSI_13, draws
from helpers import randint_short_elem, randrange_elem, randrange_monic_irreducible


def test_centered_reduce_examples():
    m8 = Modulus(2, 3).m
    assert centered(5, m8) == -3
    assert centered(4, m8) == 4  # right endpoint included
    assert centered(-5, m8) == 3


def test_centered_reduce_random():
    rng = random.Random(0)
    for _ in range(300):
        p, s = rng.choice([(2, 5), (3, 3), (5, 2), (7, 1), (11, 2)])
        m = Modulus(p, s)
        x = rng.randrange(-(10**9), 10**9)
        r = centered(x, m.m)
        assert (r - x) % m.m == 0
        assert -m.m < 2 * r <= m.m


def test_inv_examples():
    assert invmod(3, Modulus(2, 3).m) == 3  # 3*3 = 9 = 1 mod 8
    assert invmod(1, Modulus(7, 2).m) == 1
    with pytest.raises(ValueError, match="not invertible"):
        invmod(2, Modulus(2, 3).m)


def test_inv_roundtrip_random():
    rng = random.Random(1)
    checked = 0
    while checked < 200:
        m = Modulus(rng.choice([2, 3, 5, 7, 13]), rng.randrange(1, 5))
        a = centered(rng.randrange(1, m.m), m.m)
        if a % m.p == 0:
            with pytest.raises(ValueError):
                invmod(a, m.m)
            continue
        inv = invmod(a, m.m)
        assert centered(a * inv, m.m) == 1 and inv == centered(inv, m.m)
        checked += 1


def test_arith_examples():
    m8 = Modulus(2, 3).m
    three = centered(3, m8)
    assert centered(three + three, m8) == -2
    assert centered(three * three, m8) == 1
    assert centered(0 - 1, m8) == -1


def test_ring_axioms_random_triples():
    # centered reduction is a ring homomorphism Z -> Z/27Z
    rng = random.Random(2)
    m = Modulus(3, 3).m
    for _ in range(200):
        a, b, c = (centered(rng.randrange(m), m) for _ in range(3))
        assert centered(centered(a + b, m) + c, m) == centered(a + centered(b + c, m), m)
        assert centered(centered(a * b, m) * c, m) == centered(a * centered(b * c, m), m)
        assert centered(a * centered(b + c, m), m) == centered(a * b + a * c, m)
        assert centered(a * b, m) == centered(b * a, m)
        assert centered(a + b, m) == centered(b + a, m)


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        eval_poly(Poly([1], Modulus(2, 3)), RingCtx(Poly([0, 1], Modulus(3, 2))).one())


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
    m = Modulus(3, 4)  # the residue modulus is built, and p tested, once
    assert Poly([1, 2], m).reduce_mod_p().modulus is Poly([5], m).reduce_mod_p().modulus


def test_is_prime_covers_mr_range():
    assert is_prime(2) and is_prime(97) and is_prime(1_000_003)
    assert is_prime(2**61 - 1)  # far past the exhaustive range of the next test
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


def test_is_prime_agrees_with_trial_division_below_200000():
    # the small-prime loop and Miller-Rabin are the one path for every n
    primes = []
    for n in range(200_000):
        expected = n >= 2 and all(n % q for q in takewhile(lambda q: q * q <= n, primes))
        assert is_prime(n) == expected, n
        if expected:
            primes.append(n)


@pytest.mark.parametrize("bound", [1, 2, 3, 256, 2**32, 3**10, 251**3, 2**64 + 13])
def test_draws_are_randrange_draw_for_draw(bound):
    # same values and the same generator state afterwards, so every later
    # draw of a seeded run is unchanged too
    for seed in range(30):
        ours, theirs = random.Random(seed), random.Random(seed)
        for count in (0, 1, 7):
            assert draws(ours, count, bound) == [theirs.randrange(bound) for _ in range(count)]
            assert ours.getstate() == theirs.getstate()


def test_draws_refuse_an_empty_range():
    with pytest.raises(ValueError):
        draws(random.Random(0), 1, 0)


def _same_stream(sample, oracle, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert sample(ours) == oracle(theirs)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("p, s, n", [(2, 8, 6), (3, 4, 5), (2, 32, 24), (251, 1, 4), (5, 1, 1)])
def test_samplers_draw_as_their_randrange_formulas(p, s, n):
    modulus = Modulus(p, s)
    for seed in range(10):
        _same_stream(lambda rng: random_monic_irreducible(modulus, n, rng).coeffs,
                     lambda rng: randrange_monic_irreducible(modulus, n, rng).coeffs, seed)
        ctx = RingCtx(random_monic_irreducible(modulus, n, random.Random(seed)))
        _same_stream(ctx.random_elem, lambda rng: randrange_elem(ctx, rng), seed)
        for beta in {1, 2, (modulus.m - 1) // 2} - {0}:
            if 2 * beta < modulus.m:
                chi = ChiBeta(beta, ctx)
                _same_stream(chi.sample, lambda rng: randint_short_elem(chi, rng), seed)


def test_composite_random_elem_draws_as_randrange():
    rng = random.Random(3)
    comps = [RingCtx(random_monic_irreducible(Modulus(p, s), 4, rng)) for p, s in ((2, 8), (3, 2))]
    ctx = CompositeCtx.from_components(comps)
    for seed in range(30):
        _same_stream(ctx.random_elem, lambda r: randrange_elem(ctx, r), seed)
