"""The residue field F_{p^n} as the s = 1 ring, and root finding in it."""

import random
from itertools import zip_longest

import pytest

from griforge import (
    Modulus,
    Poly,
    RingCtx,
    build_ring_iso,
    eval_poly,
    field_iso_from_root,
    find_root,
    random_monic_irreducible,
)
from griforge.errors import CtxMismatch, NoRoot, NotAUnit, NotIrreducible, ParamMismatch
from griforge.ffield import _tdivmod, _tgcd, _tmul, _trem, _trev_inv
from griforge.poly import _raw_add, _trim
from helpers import field_roots, list_kernel_f2_root

M2 = Modulus(2, 1)
M3 = Modulus(3, 1)
F4 = RingCtx(Poly([1, 1, 1], M2))  # F_2[y]/(y^2+y+1)


def test_arith_examples():
    y = F4.gen_class()
    assert F4.residue_field is F4
    assert y * y == F4.elem([1, 1])  # y^2 = y + 1
    assert y.inv() == F4.elem([1, 1])  # exhaustive: y(y+1) = 1
    candidates = [a for a in F4.elements() if (a * y) == F4.one()]
    assert candidates == [y.inv()]


def test_pow_frobenius_fixed():
    rng = random.Random(0)
    for p, n in [(2, 2), (3, 2), (5, 2), (2, 3)]:
        field = RingCtx(random_monic_irreducible(Modulus(p, 1), n, rng))
        for _ in range(20):
            a = field.random_elem(rng)
            assert a.pow(p**n) == a


def test_inv_zero_rejected():
    with pytest.raises(NotAUnit):
        F4.zero().inv()


def test_inv_random_roundtrip():
    rng = random.Random(1)
    for p, n in [(2, 4), (3, 3), (7, 2)]:
        field = RingCtx(random_monic_irreducible(Modulus(p, 1), n, rng))
        for _ in range(30):
            a = field.random_elem(rng)
            if a.is_zero:
                continue
            assert a * a.inv() == field.one()


def test_find_root_examples():
    rng = random.Random(2)
    root = find_root(Poly([1, 1, 1], M2), F4, rng)
    assert root in (F4.elem([0, 1]), F4.elem([1, 1]))

    # the field's own polynomial always has the class of y as a root
    roots = field_roots(F4.fbar, F4)
    assert F4.gen_class() in roots

    ynine = RingCtx(Poly([1, 0, 1], M3))
    root = find_root(Poly([1, 0, 1], M3), ynine, rng)
    assert root in (ynine.elem([0, 1]), ynine.elem([0, -1]))


def test_find_root_postcondition_and_conjugate_count():
    rng = random.Random(3)
    for p, n in [(2, 2), (2, 3), (3, 2), (2, 4), (2, 6), (3, 4)]:
        if p**n > 81:
            continue
        g = random_monic_irreducible(Modulus(p, 1), n, rng)
        field = RingCtx(random_monic_irreducible(Modulus(p, 1), n, rng))
        root = find_root(g, field, rng)
        assert eval_poly(g, root).is_zero
        assert len(field_roots(g, field)) == n  # n distinct conjugates


def test_find_root_degree_contract():
    rng = random.Random(4)
    with pytest.raises(NoRoot):
        find_root(Poly([1, 1, 0, 1], M2), F4, rng)  # degree 3 into degree-2 field


def test_find_root_large_field():
    rng = random.Random(5)
    g = random_monic_irreducible(Modulus(7, 1), 8, rng)
    field = RingCtx(random_monic_irreducible(Modulus(7, 1), 8, rng))
    root = find_root(g, field, rng)
    assert eval_poly(g, root).is_zero


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (251, 3)])
def test_newton_rem_matches_tdivmod(p, n):
    rng = random.Random(p * 10 + n)
    field = RingCtx(random_monic_irreducible(Modulus(p, 1), n, rng))
    fb, red = list(field.f.coeffs), field._rem_matrix

    def elem():
        return list(field.random_elem(rng).rep.coeffs)

    for dh in (1, 2, 8):
        # rev(t^dh + 1)^-1 = 1 modulo t^(dh - 1), so the reversed quotient of a
        # sparse u comes out shorter than the quotient.
        for h in ([elem() for _ in range(dh)] + [[1]], [[1]] + [[]] * (dh - 1) + [[1]]):
            hinv = _trev_inv(h, p, red)
            cases = [[], [elem()]]
            for length in range(1, 2 * dh):
                cases.append([elem() for _ in range(length - 1)] + [elem() or [1]])
                cases.append([[]] * (length - 1) + [elem() or [1]])  # c * t^(length - 1)
            for u in cases:
                assert _trem(u, h, hinv, p, red) == _tdivmod(u, h, p, fb, red)[1], (dh, u)


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (251, 3)])
def test_tdivmod_and_tgcd_by_non_monic_divisors(p, n):
    rng = random.Random(p * 100 + n)
    field = RingCtx(random_monic_irreducible(Modulus(p, 1), n, rng))
    fb, red = list(field.f.coeffs), field._rem_matrix

    def elem():
        return list(field.random_elem(rng).rep.coeffs)

    def tpoly(length):  # a t-polynomial of degree length - 1 whose lead is neither 0 nor 1
        lead = elem()
        while lead in ([], [1]):
            lead = elem()
        return [elem() for _ in range(length - 1)] + [lead]

    def mul(u, v):
        return _tmul(u, v, p, red) if u and v else []

    def add(u, v):
        return _trim([_raw_add(a, b, p) for a, b in zip_longest(u, v, fillvalue=[])])

    for dv in (1, 2, 5):
        for length in range(2 * dv + 3):
            u, v = tpoly(length) if length else [], tpoly(dv + 1)
            q, r = _tdivmod(u, v, p, fb, red)
            assert len(r) < len(v), (dv, u, v)
            assert add(mul(q, v), r) == u, (dv, u, v)
        c = tpoly(dv + 1)
        ca, cb = mul(c, tpoly(2)), mul(c, tpoly(dv))
        d = _tgcd(ca, cb, p, fb, red)
        assert d[-1] == [1]
        # d divides both inputs, and their common factor c divides d
        for x, y in ((ca, d), (cb, d), (d, c)):
            assert _tdivmod(x, y, p, fb, red)[1] == [], (dv, x, y)


# (p, g, field polynomial, rng seed, root, next 64 random bits): the conjugate
# each seed selects, and the draw after the call, so any change in the number
# of draws shows. p = 2 splits with the trace polynomial, odd p with powers,
# n = 1 needs no splitting.
GOLDEN_ROOTS = [
    (2, (0, 1), (1, 1), 0, (), 7106521602475165645),
    (2, (1, 1, 1), (1, 1, 1), 0, (0, 1), 4776171008201404212),
    (2, (1, 1, 1), (1, 1, 1), 2, (1, 1), 3119042104763040036),
    (2, (1, 1, 0, 1), (1, 0, 1, 1), 0, (1, 1), 17809683713383489082),
    (2, (1, 1, 0, 1), (1, 0, 1, 1), 1, (1, 0, 1), 9139164268605729673),
    (2, (1, 0, 1, 0, 1, 1, 1), (1, 0, 0, 1, 0, 0, 1), 0, (1, 1, 0, 1, 1, 1), 14458531974522955699),
    (2, (1, 0, 1, 0, 1, 1, 1), (1, 0, 0, 1, 0, 0, 1), 1, (1, 1, 0, 1, 1, 1), 15417145005318368486),
    (2, (1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1), (1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1),
     0, (0, 1, 0, 0, 1, 1, 1, 1, 1), 10192262804094026689),
    (2, (1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1), (1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1),
     1, (1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1), 7786676433640950850),
    (2, (1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1),
     (1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1),
     0, (1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1), 15050940084311748120),
    (2, (1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1),
     (1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1),
     1, (0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 4186255040170865876),
    (3, (1, 1), (-1, 1), 0, (-1,), 7106521602475165645),
    (3, (-1, 1, -1, 0, -1, 1), (-1, 1, -1, 0, -1, 1), 0, (-1, 0, 1, -1), 11813726597345908409),
    (3, (-1, 1, -1, 0, -1, 1), (-1, 1, -1, 0, -1, 1), 1, (1, 0, -1, -1, 1), 14037279428536751483),
    (5, (1, 0, 1, 1, 1), (2, 0, 1, 0, 1), 0, (2, 1, 2), 9431353882395063546),
    (5, (1, 0, 1, 1, 1), (2, 0, 1, 0, 1), 1, (0, -2, -2, -1), 9139164268605729673),
    (7, (3, -2, 1, 1), (3, 0, 2, 1), 0, (-2, 2, -3), 7758176404715800194),
    (13, (-4, -5, 1), (-6, -6, 1), 0, (4, 6), 7758176404715800194),
    (13, (-4, -5, 1), (-6, -6, 1), 1, (1, -6), 14799178230035213023),
]


def test_find_root_golden_conjugates():
    for p, g, f, seed, root, draw in GOLDEN_ROOTS:
        m = Modulus(p, 1)
        rng = random.Random(seed)
        got = find_root(Poly(g, m), RingCtx(Poly(f, m)), rng)
        assert got.rep.coeffs == root, (p, g, seed)
        assert rng.getrandbits(64) == draw, (p, g, seed)
    m8 = Modulus(2, 3)
    with pytest.raises(CtxMismatch):  # s > 1 is not a field
        find_root(Poly([1, 1, 1], m8), RingCtx(Poly([1, 1, 1], m8)), random.Random(0))
    with pytest.raises(CtxMismatch):
        find_root(Poly([1, 1, 1], M2), RingCtx(Poly([1, 1, 1], m8)), random.Random(0))
    with pytest.raises(NoRoot):  # x^2 + x = x(x + 1) splits over F_2 but is reducible
        find_root(Poly([0, 1, 1], M2), F4, random.Random(0))


def test_find_root_f2_matches_list_kernel():
    # the packed p = 2 splitting against the list kernel it replaced: the same root and
    # the same generator state after the call, over n = 1 ... 10 and a few cases at 16.
    # Slot sums near the width bound are rare; at n = 4 and 5 about one case in 40
    # reaches 2^(w-1), so a slot width one bit short shows within these cases.
    cases = [(n, c) for n in range(1, 11) for c in range(80 if n <= 6 else 8)]
    cases += [(16, c) for c in range(3)]
    for n, case in cases:
        pick = random.Random(1000 * n + case)
        g = random_monic_irreducible(M2, n, pick)
        field = RingCtx(random_monic_irreducible(M2, n, pick))
        seed = pick.getrandbits(32)
        rng, ref = random.Random(seed), random.Random(seed)
        assert find_root(g, field, rng).rep.coeffs == list_kernel_f2_root(g, field, ref), (n, case)
        assert rng.getstate() == ref.getstate(), (n, case)


class _ZeroBits(random.Random):
    """A generator whose getrandbits is always 0, counting its calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return 0


@pytest.mark.parametrize("n", [2, 3, 6])
def test_find_root_f2_attempt_bound(n):
    # delta = 0 on every attempt makes the trace 0, so no attempt splits: find_root gives
    # up after 64(n + 1) field draws of n one-word coefficient draws each
    rng = random.Random(n)
    g = random_monic_irreducible(M2, n, rng)
    field = RingCtx(random_monic_irreducible(M2, n, rng))
    zero = _ZeroBits()
    with pytest.raises(NoRoot, match="equal-degree splitting did not converge"):
        find_root(g, field, zero)
    assert zero.calls == 64 * (n + 1) * n


def test_iso_identity_when_same_polynomial():
    src = RingCtx(Poly([1, 1, 1], M2))
    dst = RingCtx(Poly([1, 1, 1], M2))
    iso = field_iso_from_root(src, dst, dst.gen_class())
    assert iso.phi_x == dst.gen_class()
    assert iso.apply_inverse(dst.gen_class()) == src.gen_class()
    assert iso.fwd == ((1, 0), (0, 1))


def test_iso_worked_example_f2():
    # root y+1 of x^2+x+1 sends x to y+1 and y back to x+1
    src = RingCtx(Poly([1, 1, 1], M2))
    dst = RingCtx(Poly([1, 1, 1], M2))
    iso = field_iso_from_root(src, dst, dst.elem([1, 1]))
    assert iso.phi_x == dst.elem([1, 1])
    assert iso.apply_inverse(dst.gen_class()) == src.elem([1, 1])
    # A(B(x)) = x: apply then invert is the identity
    x = src.gen_class()
    assert iso.apply_inverse(iso.apply(x)) == x
    with pytest.raises(ParamMismatch):  # field isomorphisms need s = 1
        m4 = Modulus(2, 2)
        field_iso_from_root(RingCtx(Poly([1, 1, 1], m4)), RingCtx(Poly([1, 1, 1], m4)), x)


def test_iso_f3_brute_force():
    fbar = Poly([1, 0, 1], M3)  # x^2 + 1
    gbar = Poly([2, 1, 1], M3)  # y^2 + y + 2
    rng = random.Random(6)
    iso = build_ring_iso(RingCtx(fbar), RingCtx(gbar), rng)
    # the image of x must be one of the roots of fbar in the destination
    assert iso.phi_x in field_roots(fbar, iso.dst)
    # and the preimage of y one of the roots of gbar in the source, inverse to it
    assert iso.apply_inverse(iso.dst.gen_class()) in field_roots(gbar, iso.src)
    for a in iso.src.elements():
        assert iso.apply_inverse(iso.apply(a)) == a


def test_iso_homomorphism_500_pairs():
    rng = random.Random(7)
    fbar = random_monic_irreducible(Modulus(5, 1), 3, rng)
    gbar = random_monic_irreducible(Modulus(5, 1), 3, rng)
    iso = build_ring_iso(RingCtx(fbar), RingCtx(gbar), rng)
    for _ in range(500):
        a = iso.src.random_elem(rng)
        b = iso.src.random_elem(rng)
        assert iso.apply(a + b) == iso.apply(a) + iso.apply(b)
        assert iso.apply(a * b) == iso.apply(a) * iso.apply(b)
        assert iso.apply_inverse(iso.apply(a)) == a
        assert iso.apply(iso.apply_inverse(b_dst := iso.dst.random_elem(rng))) == b_dst
        # the matrix route agrees with substituting phi_x into a's polynomial
        assert iso.apply(a) == eval_poly(a.rep, iso.phi_x)


def test_iso_inverse_agrees_with_root_search_oracle():
    rng = random.Random(8)
    fbar = random_monic_irreducible(M3, 2, rng)
    gbar = random_monic_irreducible(M3, 2, rng)
    iso = build_ring_iso(RingCtx(fbar), RingCtx(gbar), rng)
    # Algorithm-style inverse: b must be a root of gbar in the source
    # satisfying A(b) = x, found here by exhaustive search.
    matches = [
        b
        for b in field_roots(gbar, iso.src)
        if eval_poly(iso.phi_x.rep, b) == iso.src.gen_class()
    ]
    assert matches == [iso.apply_inverse(iso.dst.gen_class())]


def test_build_field_iso_degree_and_irreducibility_errors():
    rng = random.Random(9)
    with pytest.raises(ParamMismatch):
        build_ring_iso(RingCtx(Poly([1, 1, 1], M2)), RingCtx(Poly([1, 1, 0, 1], M2)), rng)
    with pytest.raises(NotIrreducible):
        RingCtx(Poly([1, 0, 1], M2))
