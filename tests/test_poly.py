import random

import pytest

from griforge import Modulus, Poly, RingCtx, eval_poly, is_irreducible_mod_p
from griforge import random_monic_irreducible
from griforge.cli import _ints_text, _parse_ints
from griforge.errors import ModulusMismatch, ValidationError
from griforge.ffield import _tmul
from griforge.poly import _canon, _mul_rem, _pack, _raw_add, _raw_mul, _rem_matrix, _rem_slots
from griforge.zmod import MAX_MODULUS_BITS
from helpers import exhaustive_irreducible, frobenius_irreducible, list_kernel_ben_or
from helpers import randrange_monic_irreducible
from helpers import schoolbook_mul, schoolbook_rem

M4 = Modulus(2, 2)
M8 = Modulus(2, 3)
M9 = Modulus(3, 2)


# Kernel arithmetic on the coefficients of canonical polynomials.
def _add(a: Poly, b: Poly) -> Poly:
    return Poly(_raw_add(a.coeffs, b.coeffs, a.modulus.m), a.modulus)


def _mul(a: Poly, b: Poly) -> Poly:
    return Poly(_raw_mul(a.coeffs, b.coeffs, a.modulus.m), a.modulus)


def _rem(a: Poly, f: Poly) -> Poly:
    return Poly(_canon(a.coeffs, a.modulus.m, f.coeffs), a.modulus)


def test_mul_examples():
    assert _mul(Poly([1, 1], M4), Poly([1, 1], M4)) == Poly([1, 2, 1], M4)
    assert _add(Poly([3, 0, 1], M8), Poly([1, 0, -1], M8)) == Poly([4], M8)
    assert _mul(Poly([], M9), Poly([0, 0, 0, 0, 0, 1], M9)) == Poly([], M9)


def test_mul_matches_schoolbook_oracle():
    rng = random.Random(5)
    for _ in range(50):
        m = Modulus(rng.choice([2, 3, 5]), rng.randrange(1, 4))
        a = [rng.randrange(m.m) for _ in range(rng.randrange(0, 80))]
        b = [rng.randrange(m.m) for _ in range(rng.randrange(0, 80))]
        got = _mul(Poly(a, m), Poly(b, m))
        assert got.coeffs == schoolbook_mul(a, b, m.m)


# Moduli for the packed products: word-size powers of two, an odd prime
# power, and one at the modulus size bound.
PACK_MODULI = [2**32, 2**64, 65537**3, Modulus(2, MAX_MODULUS_BITS).m]


@pytest.mark.parametrize("m", PACK_MODULI, ids=["2^32", "2^64", "65537^3", "2^4096"])
def test_packed_mul_matches_schoolbook_oracle(m):
    rng = random.Random(m % 1009)
    shapes = [(1, 80), (80, 1), (0, 5), (5, 0), (0, 0), (1, 1), (7, 13), (33, 40)]
    for la, lb in shapes:
        for a, b in [
            ([rng.randrange(-m, 2 * m) for _ in range(la)], [rng.randrange(-m, 2 * m) for _ in range(lb)]),
            ([-1] * la, [-1] * lb),  # every residue is m - 1: the widest slot sums
            ([0] * la, [rng.randrange(m) for _ in range(lb)]),
        ]:
            assert tuple(_raw_mul(a, b, m)) == schoolbook_mul(a, b, m), (la, lb)
    a = [-1] * 40
    assert tuple(_raw_mul(a, a, m)) == schoolbook_mul(a, a, m)  # squaring packs once


@pytest.mark.parametrize(
    "m", [2, 36, 2**32, 65537**3, 2**32 * 3**20, Modulus(2, MAX_MODULUS_BITS).m],
    ids=["2", "36", "2^32", "65537^3", "2^32*3^20", "2^4096"],
)
def test_packed_rem_matrix_matches_schoolbook_rem(m):
    rng = random.Random(m % 1009)
    w = (m - 1).bit_length()  # input slots hold residues only
    for n in (1, 2, 6, 24):
        # All-ones f puts m - 1 in every coefficient of x^n mod f, so at n = 2
        # the all-(-1) input fills a slot of the reduction sum to its bound.
        for f in ([1] * (n + 1), [rng.randrange(m) for _ in range(n)] + [1]):
            red = _rem_matrix(f, m)
            for length in (0, 1, n, 2 * n - 1):
                for a in ([rng.randrange(-m, 2 * m) for _ in range(length)], [-1] * length):
                    assert tuple(_rem_slots(_pack(a, w, m), w, red, m)) == schoolbook_rem(a, f, m)
            a = [-1] * n
            assert tuple(_mul_rem(a, a, red, m)) == schoolbook_rem(schoolbook_mul(a, a, m), f, m)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 6), (3, 5), (13, 8), (251, 4), (65537, 3)])
def test_packed_tmul_matches_per_coefficient_oracle(p, n):
    rng = random.Random(p * 100 + n)
    fb = list(random_monic_irreducible(Modulus(p, 1), n, rng).coeffs)
    red = _rem_matrix(fb, p)

    def oracle(u, v):
        out = []
        for k in range(len(u) + len(v) - 1):
            acc = [0] * (2 * n - 1)
            for i in range(max(0, k - len(v) + 1), min(k, len(u) - 1) + 1):
                for j, c in enumerate(schoolbook_mul(u[i], v[k - i], p)):
                    acc[j] += c
            out.append(list(schoolbook_rem(acc, fb, p)))
        while out and not out[-1]:
            out.pop()
        return out

    def elem():
        return [rng.randrange(p) - p // 2 for _ in range(rng.randrange(0, n + 1))]

    cases = [([[-1] * n] * lu, [[-1] * n] * lv) for lu, lv in [(1, 1), (5, 5), (1, 9), (9, 2)]]
    cases += [([], [elem()]), ([[]] * 3, [elem(), elem()])]
    cases += [
        ([elem() for _ in range(rng.randrange(1, 10))], [elem() for _ in range(rng.randrange(1, 10))])
        for _ in range(20)
    ]
    for u, v in cases:
        assert _tmul(u, v, p, red) == oracle(u, v)


def test_rem_examples():
    f = Poly([1, 1, 1], M8)
    assert _rem(Poly([0, 0, 1], M8), f) == Poly([-1, -1], M8)
    assert _rem(Poly([0, 1], M8), f) == Poly([0, 1], M8)
    assert _rem(f, f) == Poly([], M8)


def test_rem_matches_schoolbook_oracle():
    rng = random.Random(6)
    for _ in range(50):
        m = Modulus(rng.choice([2, 3, 7]), rng.randrange(1, 4))
        f = Poly([rng.randrange(m.m) for _ in range(rng.randrange(1, 6))] + [1], m)
        a = Poly([rng.randrange(m.m) for _ in range(rng.randrange(0, 12))], m)
        assert _rem(a, f).coeffs == schoolbook_rem(a.coeffs, f.coeffs, m.m)


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        eval_poly(Poly([1], M9), RingCtx(Poly([1, 1, 1], M4)).one())


def test_derivative_examples():
    assert Poly([1, 1, 1], M4).derivative() == Poly([1, 2], M4)
    assert Poly([5], M8).derivative() == Poly([], M8)
    assert Poly([0, 0, 0, 0, 1], M4).derivative() == Poly([], M4)  # 4x^3 = 0 mod 4


def test_derivative_product_rule():
    rng = random.Random(7)
    for _ in range(100):
        m = Modulus(rng.choice([2, 3, 5]), rng.randrange(1, 4))
        f = Poly([rng.randrange(m.m) for _ in range(rng.randrange(0, 7))], m)
        g = Poly([rng.randrange(m.m) for _ in range(rng.randrange(0, 7))], m)
        assert _mul(f, g).derivative() == _add(_mul(f.derivative(), g), _mul(f, g.derivative()))


def test_reduce_mod_p_examples():
    m2 = Modulus(2, 1)
    assert Poly([1, 5, 1], M8).reduce_mod_p() == Poly([1, 1, 1], m2)
    assert Poly([1, 1, 1], m2).reduce_mod_p() == Poly([1, 1, 1], m2)
    assert Poly([2, 4], M8).reduce_mod_p() == Poly([], m2)


def test_reduce_mod_p_is_homomorphism():
    rng = random.Random(8)
    for _ in range(100):
        m = Modulus(rng.choice([2, 5]), rng.randrange(2, 4))
        a = Poly([rng.randrange(m.m) for _ in range(rng.randrange(0, 7))], m)
        b = Poly([rng.randrange(m.m) for _ in range(rng.randrange(0, 7))], m)
        assert _add(a, b).reduce_mod_p() == _add(a.reduce_mod_p(), b.reduce_mod_p())
        assert _mul(a, b).reduce_mod_p() == _mul(a.reduce_mod_p(), b.reduce_mod_p())


def test_irreducibility_examples():
    m2 = Modulus(2, 1)
    m3 = Modulus(3, 1)
    assert is_irreducible_mod_p(Poly([1, 1, 1], m2))
    assert not is_irreducible_mod_p(Poly([1, 0, 1], m2))  # (x+1)^2
    assert is_irreducible_mod_p(Poly([1, 0, 1], m3))


def test_irreducibility_against_exhaustive_oracle():
    # every prime power p^n up to 3^6 = 729
    rng = random.Random(9)
    cases = (
        [(2, n) for n in range(1, 10)]
        + [(3, n) for n in range(1, 7)]
        + [(5, n) for n in range(1, 5)]
        + [(7, n) for n in range(1, 4)]
    )
    for p, n in cases:
        m = Modulus(p, 1)
        for _ in range(6):
            f = Poly([rng.randrange(p) for _ in range(n)] + [1], m)
            assert is_irreducible_mod_p(f) == exhaustive_irreducible(f)


@pytest.mark.parametrize(
    "p,n,count", [(2, 24, 40), (3, 12, 40), (13, 16, 30), (251, 6, 40), (7, 64, 3)]
)
def test_irreducibility_against_frobenius_oracle(p, n, count):
    # past the exhaustive oracle's reach; one sampled irreducible per cell
    # makes sure both verdicts occur. g1 * g2 and g1^2, whose least factor
    # degree is n // 2, pin the last step of the test's loop: random
    # candidates almost never have all their factors there.
    rng = random.Random(p * 1000 + n)
    m = Modulus(p, 1)
    polys = [Poly([rng.randrange(p) for _ in range(n)] + [1], m) for _ in range(count)]
    polys.append(random_monic_irreducible(m, n, rng))
    g1, g2 = (random_monic_irreducible(m, d, rng) for d in (n // 2, n - n // 2))
    assert frobenius_irreducible(g1) and frobenius_irreducible(g2)
    polys += [Poly(schoolbook_mul(g1.coeffs, g.coeffs, p), m) for g in (g2, g1)]
    verdicts = [is_irreducible_mod_p(f) for f in polys]
    assert verdicts == [frobenius_irreducible(f) for f in polys]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("p,n", [(2, 8), (3, 9), (2, 16), (5, 5)])
def test_irreducibility_where_a_frobenius_step_first_reaches_n(p, n):
    # p^d = n at a step d < n/2, so a later step follows it: x^(p^d) = x^n must be
    # reduced modulo fbar there, and the steps after it start from that remainder.
    # Irreducibles come from the Frobenius oracle's own sampler, and g_d * g_(n-d)
    # has a factor of every degree d the loop tries.
    rng = random.Random(p * 1000 + n)
    m = Modulus(p, 1)
    polys = [randrange_monic_irreducible(m, n, rng) for _ in range(10)]
    for d in range(1, n // 2 + 1):
        gd, ge = (randrange_monic_irreducible(m, e, rng) for e in (d, n - d))
        polys.append(Poly(schoolbook_mul(gd.coeffs, ge.coeffs, p), m))
    verdicts = [is_irreducible_mod_p(f) for f in polys]
    assert verdicts == [frobenius_irreducible(f) for f in polys]
    assert verdicts == [True] * 10 + [False] * (n // 2)


def _list_kernel_f2_irreducible(n, rng):
    """Residues of a random monic irreducible of degree n over F_2, by rejection on the
    list-kernel oracle, so a broken bit path cannot stall the sampling."""
    while True:
        fb = [rng.randrange(2) for _ in range(n)] + [1]
        if list_kernel_ben_or(fb):
            return fb


@pytest.mark.parametrize("n", range(1, 65))
def test_irreducibility_f2_matches_list_kernel(n):
    # The bit-packed p = 2 path against the list kernel it replaced and the Frobenius
    # criterion: an irreducible, g1 * g2 with factors of degrees n // 2 and n - n // 2
    # (only the last step of the loop finds a factor), a square g1^2 (times x at odd n),
    # and random monic inputs.
    rng = random.Random(2000 + n)
    m = Modulus(2, 1)
    irreducible, reducible = Poly(_list_kernel_f2_irreducible(n, rng), m), []
    if n > 1:
        g1, g2 = (_list_kernel_f2_irreducible(d, rng) for d in (n // 2, n - n // 2))
        square = schoolbook_mul(g1, g1, 2)
        reducible = [Poly(schoolbook_mul(g1, g2, 2), m),
                     Poly(schoolbook_mul(square, (0, 1), 2) if n % 2 else square, m)]
    polys = [irreducible, *reducible]
    polys += [Poly([rng.randrange(2) for _ in range(n)] + [1], m) for _ in range(8)]
    verdicts = [is_irreducible_mod_p(f) for f in polys]
    assert verdicts == [list_kernel_ben_or([c % 2 for c in f.coeffs]) for f in polys]
    assert verdicts == [frobenius_irreducible(f) for f in polys]
    assert verdicts[: 1 + len(reducible)] == [True] + [False] * len(reducible)


def test_irreducibility_lifted_agrees_with_reduction():
    rng = random.Random(10)
    for _ in range(30):
        m = Modulus(rng.choice([2, 3, 5]), rng.randrange(2, 4))
        n = rng.randrange(1, 5)
        f = Poly([rng.randrange(m.m) for _ in range(n)] + [1], m)
        assert is_irreducible_mod_p(f) == is_irreducible_mod_p(f.reduce_mod_p())


def test_random_monic_irreducible_unique_quadratic_over_f2():
    m2 = Modulus(2, 1)
    for seed in range(5):
        f = random_monic_irreducible(m2, 2, random.Random(seed))
        assert f == Poly([1, 1, 1], m2)


def test_random_monic_irreducible_reproducible():
    f1 = random_monic_irreducible(M4, 2, random.Random(11))
    f2 = random_monic_irreducible(M4, 2, random.Random(11))
    assert f1 == f2


def test_random_monic_irreducible_linear():
    f = random_monic_irreducible(M9, 1, random.Random(12))
    assert f.degree == 1 and f.is_monic and is_irreducible_mod_p(f)


def test_rem_mul_compatible():
    rng = random.Random(13)
    m = Modulus(3, 2)
    f = Poly([1, 0, 2, 1], m)
    for _ in range(100):
        a = Poly([rng.randrange(m.m) for _ in range(6)], m)
        b = Poly([rng.randrange(m.m) for _ in range(6)], m)
        assert _rem(_mul(a, b), f) == _rem(_mul(_rem(a, f), _rem(b, f)), f)


def test_text_roundtrip():
    # the file format lives in cli: one integer-list writer and reader, which takes
    # the degree n of the ring a field belongs to and refuses more than n + 1 entries
    f = Poly([-3, 1, 0, 2], M8)
    assert _ints_text(f.coeffs) == "-3,1,0,2"
    assert Poly(_parse_ints(_ints_text(f.coeffs), 3), M8) == f
    assert _ints_text(Poly([], M8).coeffs) == "0"
    assert Poly(_parse_ints("0", 3), M8) == Poly([], M8)
    assert Poly(_parse_ints("5,-7", 3), M8) == Poly([-3, 1], M8)  # re-centered mod 8
    row = (0, -12, 0, 255, -1)  # an attack-report basis row keeps its zeros
    assert _ints_text(row) == "0,-12,0,255,-1"
    assert tuple(_parse_ints(_ints_text(row), 4)) == row
    for bad in ("", "1,,2", "1.5", "x"):
        with pytest.raises(ValueError):
            _parse_ints(bad, 3)
    with pytest.raises(ValidationError, match=r"more than n \+ 1 = 4 entries"):
        _parse_ints("1,2,3,4,x", 3)


def test_poly_is_a_frozen_canonical_value():
    f = Poly([5, 1, 1, 0], M4)
    assert f == Poly(coeffs=(1, 1, 1), modulus=M4) and f.coeffs == (1, 1, 1)
    assert hash(f) == hash(((1, 1, 1), M4)) and repr(f) == "x^2 + x + 1 (mod 2^2)"
    assert f != Poly([1, 1, 1], Modulus(2, 1)) and f != (1, 1, 1)
    assert f.derivative() == Poly([1, 2], M4) and Poly([3], M9).derivative() == Poly([], M9)
    with pytest.raises(AttributeError):
        f.coeffs = ()


@pytest.mark.parametrize("call", [
    lambda: is_irreducible_mod_p(Poly([1, 1, 2], M9)),
    lambda: is_irreducible_mod_p(Poly([1], M9)),
    lambda: random_monic_irreducible(M9, 0, random.Random(0)),
], ids=["non-monic", "degree-0", "random-degree-0"])
def test_irreducibility_refusals(call):
    with pytest.raises(ValueError, match="degree"):
        call()
