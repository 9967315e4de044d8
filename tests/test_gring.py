import random

import pytest

from griforge import (
    ChiBeta,
    CompositeCtx,
    Modulus,
    Poly,
    RingCtx,
    RingElem,
    build_ring_iso,
    eval_poly,
    field_iso_from_root,
    find_root,
    hensel_iterates,
    hensel_lift,
    iso_from_phi_x,
    random_monic_irreducible,
    ring_iso_from_field_root,
)
from griforge.errors import (
    CtxMismatch,
    InvalidIsomorphism,
    NotARootModP,
    NotASimpleRoot,
    NotAUnit,
    ParamMismatch,
)
from griforge.linalg import pack_rows, vec_mat
from griforge.zmod import MAX_MODULUS_BITS, centered
from helpers import hensel_all_steps, mat_mul, ring_horner, schoolbook_rem

M4 = Modulus(2, 2)
R16 = RingCtx(Poly([1, 1, 1], M4))  # Z_4[y]/(y^2+y+1)


def test_ring_arith_examples():
    y = R16.gen_class()
    assert y * y == R16.elem([-1, -1])
    assert not R16.elem([2]).is_unit()
    assert y.inv() == R16.elem([-1, -1])
    matches = [a for a in R16.elements() if a * y == R16.one()]
    assert matches == [y.inv()]


def test_inv_not_a_unit():
    with pytest.raises(NotAUnit):
        R16.elem([2]).inv()


def test_inv_random_many_s():
    rng = random.Random(0)
    for p, s, n in [(2, 3, 2), (3, 2, 2), (5, 4, 1), (2, 8, 3)]:
        ctx = RingCtx(random_monic_irreducible(Modulus(p, s), n, rng))
        checked = 0
        while checked < 20:
            a = ctx.random_elem(rng)
            if not a.is_unit():
                continue
            assert a * a.inv() == ctx.one()
            checked += 1


def test_elem_canonical_form_matches_oracle():
    # ctx.elem centers, trims and reduces mod f; so must the composite ctx.elem.
    rng = random.Random(14)
    cases = []
    for p, s, n in [(2, 8, 6), (3, 4, 12), (251, 1, 4)]:
        ctx = RingCtx(random_monic_irreducible(Modulus(p, s), n, rng))
        cases.append((ctx, ctx.f.coeffs))
    comp = CompositeCtx.from_components([R16, RingCtx(Poly([1, 0, 1], Modulus(3, 2)))])
    cases.append((comp, comp.f))
    for ctx, f in cases:
        m, n = ctx.m, ctx.n
        for length in (0, 1, n, 2 * n - 1, 3 * n):
            a = [rng.randrange(-2 * m, 3 * m) for _ in range(length)]
            for tail in range(min(length, 3) + 1):  # the last `tail` entries are multiples of m
                b = a[: length - tail] + [m * rng.randrange(-2, 3) for _ in range(tail)]
                assert ctx.elem(b).coeffs == schoolbook_rem(b, f, m), (m, n, length, tail)


def test_reduce_elem_examples():
    a = R16.elem([2, 3])
    red = a.reduce_mod_p()
    assert red == R16.residue_field.elem([0, 1])
    assert R16.elem([2, 2]).reduce_mod_p().is_zero  # kernel is (p)
    assert R16.gen_class().reduce_mod_p() == R16.residue_field.gen_class()


def test_hensel_example_mod_49():
    m = Modulus(7, 2)
    ctx = RingCtx(Poly([1, 1], m))  # GR(7^2, 1)
    g = Poly([-2, 0, 1], m)  # t^2 - 2
    beta = hensel_lift(g, ctx.elem([3]), ctx)
    assert beta == ctx.elem([10])
    # brute force over all 49 residues: 10 is the unique root over 3 mod 7
    roots = [r for r in range(49) if (r * r - 2) % 49 == 0 and r % 7 == 3]
    assert roots == [10]


def test_hensel_own_polynomial_fixed_point():
    beta = hensel_lift(R16.f, R16.gen_class(), R16)
    assert beta == R16.gen_class()
    iters = hensel_iterates(R16.f, R16.gen_class(), R16)
    assert len(iters) == R16.s  # exactly s-1 updates even when already exact
    assert all(b == R16.gen_class() for b in iters)


def test_hensel_example_mod_4_quadratic():
    ctx = RingCtx(Poly([3, 3, 1], M4))  # Z_4[y]/(y^2+3y+3)
    g = Poly([1, 1, 1], M4)
    beta = hensel_lift(g, ctx.elem([1, 1]), ctx)
    assert beta == ctx.elem([1, 1])
    roots = [a for a in ctx.elements() if eval_poly(g, a).is_zero]
    assert ctx.elem([1, 1]) in roots


def test_hensel_errors():
    m = Modulus(7, 2)
    ctx = RingCtx(Poly([1, 1], m))
    g = Poly([-2, 0, 1], m)
    with pytest.raises(NotARootModP):
        hensel_lift(g, ctx.elem([1]), ctx)  # 1 - 2 = -1, not 0 mod 7
    # t^2 has 0 as a double root mod 7
    with pytest.raises(NotASimpleRoot):
        hensel_lift(Poly([0, 0, 1], m), ctx.elem([0]), ctx)


def test_hensel_iteration_count_and_chain():
    rng = random.Random(1)
    for s in range(1, 7):
        m = Modulus(3, s)
        src_f = random_monic_irreducible(m, 2, rng)
        ctx = RingCtx(random_monic_irreducible(m, 2, rng))
        root_bar = None
        for cand in ctx.residue_field.elements():
            if eval_poly(src_f.reduce_mod_p(), cand).is_zero:
                root_bar = cand
                break
        alpha = ctx.elem(root_bar.rep.coeffs)
        iters = hensel_iterates(src_f, alpha, ctx)
        assert len(iters) == s
        p = ctx.p
        for i, beta in enumerate(iters):
            val = eval_poly(src_f, beta)
            e = p ** min(i + 1, s)
            assert all(c % e == 0 for c in val.rep.coeffs)
        assert eval_poly(src_f, iters[-1]).is_zero


def _lift_start(p, s, n, seed):
    """(g, alpha0, ctx): a random g and a residue root of it, trivially lifted into a second ring."""
    rng = random.Random(seed)
    m = Modulus(p, s)
    g = random_monic_irreducible(m, n, rng)
    ctx = RingCtx(random_monic_irreducible(m, n, rng))
    root_bar = find_root(g.reduce_mod_p(), ctx.residue_field, rng)
    return g, ctx.elem(root_bar.rep.coeffs), ctx


@pytest.mark.parametrize("p,s,n", [(2, 32, 24), (2, 8, 6), (3, 10, 8), (7, 2, 16), (5, 1, 4)])
def test_hensel_iterates_match_all_steps_oracle(p, s, n):
    g, alpha0, ctx = _lift_start(p, s, n, p * s + n)
    iters = hensel_iterates(g, alpha0, ctx)
    assert iters == hensel_all_steps(g, alpha0)
    assert len(iters) == s and eval_poly(g, iters[-1]).is_zero
    exact = iters[-1]  # already an exact root: every iterate repeats it
    assert hensel_iterates(g, exact, ctx) == hensel_all_steps(g, exact) == [exact] * s


def test_hensel_inverts_at_most_log2_s_times(monkeypatch):
    g, alpha0, ctx = _lift_start(2, 32, 24, 88)
    calls = []
    inv = RingElem.inv

    def counted(self):
        calls.append(1)
        return inv(self)

    monkeypatch.setattr(RingElem, "inv", counted)
    hensel_iterates(g, alpha0, ctx)
    assert 0 < len(calls) <= (ctx.s - 1).bit_length()  # ceil(log2 s) for s >= 2


def test_hensel_uniqueness_brute_force():
    rng = random.Random(2)
    cases = [(2, 2, 2), (3, 2, 1), (2, 3, 1), (2, 2, 1), (3, 1, 2), (2, 3, 2)]
    for p, s, n in cases:
        m = Modulus(p, s)
        g = random_monic_irreducible(m, n, rng)
        ctx = RingCtx(random_monic_irreducible(m, n, rng))
        from griforge import find_root

        root_bar = find_root(g.reduce_mod_p(), ctx.residue_field, rng)
        lifted = hensel_lift(g, ctx.elem(root_bar.rep.coeffs), ctx)
        matching = [
            a
            for a in ctx.elements()
            if eval_poly(g, a).is_zero and a.reduce_mod_p() == root_bar
        ]
        assert matching == [lifted]
        all_roots = [a for a in ctx.elements() if eval_poly(g, a).is_zero]
        assert len(all_roots) == n  # one per conjugate residue root


def test_ring_iso_identity():
    src = RingCtx(Poly([1, 1, 1], M4))
    dst = RingCtx(Poly([1, 1, 1], M4))
    iso = ring_iso_from_field_root(src, dst, dst.residue_field.gen_class())
    assert iso.phi_x == dst.gen_class()
    assert iso.fwd == ((1, 0), (0, 1))
    assert iso.bwd == ((1, 0), (0, 1))
    a = src.elem([1, 3])
    assert iso.apply(a) == dst.elem([1, 3])


def test_ring_iso_worked_example():
    src = RingCtx(Poly([1, 1, 1], M4))
    dst = RingCtx(Poly([3, 3, 1], M4))
    iso = ring_iso_from_field_root(src, dst, dst.residue_field.elem([1, 1]))
    assert iso.phi_x == dst.elem([1, 1])
    assert iso.fwd == ((1, 0), (1, 1))
    assert iso.bwd == ((1, 0), (-1, 1))
    # exhaustive homomorphism check over all 16 elements
    elems = list(src.elements())
    for a in elems:
        for b in elems:
            assert iso.apply(a + b) == iso.apply(a) + iso.apply(b)
            assert iso.apply(a * b) == iso.apply(a) * iso.apply(b)
    assert iso.apply(src.one()) == dst.one()


def test_apply_examples():
    src = RingCtx(Poly([1, 1, 1], M4))
    dst = RingCtx(Poly([3, 3, 1], M4))
    iso = ring_iso_from_field_root(src, dst, dst.residue_field.elem([1, 1]))
    assert iso.apply(src.gen_class()) == dst.elem([1, 1])
    assert iso.apply(src.one()) == dst.one()
    assert iso.apply_inverse(dst.gen_class()) == src.elem([-1, 1])  # y pulls back to x-1
    rng = random.Random(3)
    for _ in range(50):
        a = src.random_elem(rng)
        assert iso.apply_inverse(iso.apply(a)) == a


def test_matrix_apply_matches_composition():
    rng = random.Random(4)
    m = Modulus(3, 2)
    src = RingCtx(random_monic_irreducible(m, 3, rng))
    dst = RingCtx(random_monic_irreducible(m, 3, rng))
    iso = build_ring_iso(src, dst, rng)
    for _ in range(500):
        a = src.random_elem(rng)
        assert iso.apply(a) == ring_horner(a.rep, iso.phi_x)


@pytest.mark.parametrize(
    "m", [2, 9, 2**32, 2**64, 65537**3, 2**MAX_MODULUS_BITS],
    ids=["2", "9", "2^32", "2^64", "65537^3", "2^4096"],
)
def test_packed_vec_mat_matches_plain_sum(m):
    rng = random.Random(m % 1013)

    def plain(v, a):
        v = list(v) + [0] * (len(a) - len(v))
        return [centered(sum(v[i] * a[i][j] for i in range(len(a))), m) for j in range(len(a))]

    cases = [([5], [[7]]), ([0], [[3]]), ([], [[3]]), ([-1], [[-1]])]
    for n in (1, 2, 7, 24, 40):
        cases.append(([-1] * n, [[-1] * n for _ in range(n)]))  # widest slot sums
        cases.append(([0] * n, [[rng.randrange(m) for _ in range(n)] for _ in range(n)]))
        for _ in range(5):
            a = [[rng.randrange(-m, 2 * m) for _ in range(n)] for _ in range(n)]
            v = [rng.randrange(-m, 2 * m) for _ in range(rng.randrange(n + 1))]
            cases.append((v, a))
    for v, a in cases:
        v = [centered(c, m) for c in v]  # vec_mat takes centered vectors
        assert vec_mat(v, pack_rows(a, m), m) == plain(v, a), (v, a)


def _is_canonical(e):
    m = e.ctx.m
    cs = e.coeffs
    return len(cs) <= e.ctx.n and (not cs or cs[-1] != 0) and all(-m < 2 * c <= m for c in cs)


def test_kernel_built_elements_equal_public_ones():
    # kernels build elements without RingElem.__init__; they must be the same values
    rng = random.Random(10)
    m = Modulus(3, 4)
    src, dst = (RingCtx(random_monic_irreducible(m, 5, rng)) for _ in range(2))
    iso = build_ring_iso(src, dst, rng)
    a, b = src.random_elem(rng), ChiBeta(2, src).sample(rng)
    built = [a, b, a + b, a - b, -a, a * b, src.zero(), src.one(), src.gen_class(),
             src.elem([7, 8, 9]), a.reduce_mod_p(), iso.apply(b), iso.apply_inverse(iso.apply(a))]
    for e in built:
        public = RingElem(e.coeffs, e.ctx)
        assert type(e) is RingElem and vars(e) == vars(public)
        assert e == public and public == e and hash(e) == hash(public) and repr(e) == repr(public)
        assert _is_canonical(e)
    assert iso.apply_inverse(iso.apply(a)) == a
    with pytest.raises(ValueError, match="canonical range"):
        RingElem(tuple(range(1, src.n + 2)), src)


def test_public_constructor_canonicalizes():
    ctx = R16  # m = 4, n = 2
    assert RingElem((4,), ctx).is_zero
    assert RingElem((1, 0), ctx) == ctx.one() and hash(RingElem((1, 0), ctx)) == hash(ctx.one())
    assert RingElem((1, 0, -8), ctx) == ctx.one()  # the length check is on the canonical tuple
    assert RingElem((5,), ctx) == ctx.elem([5]) and RingElem((5,), ctx).coeffs == (1,)
    assert hash(RingElem([1], ctx)) == hash(ctx.one())
    with pytest.raises(ValueError, match="canonical range"):
        RingElem((1, 2, 3), ctx)


def test_canonical_form_takes_integers_only():
    comp = CompositeCtx.from_components([R16, RingCtx(Poly([2, 2, 1], Modulus(3, 1)))])
    for build in (lambda cs: Poly(cs, M4), R16.elem, comp.elem, lambda cs: RingElem(cs, R16)):
        for bad in ([1.7], ["3"], [1, 0.0]):
            with pytest.raises(TypeError):
                build(bad)


@pytest.mark.parametrize("p, s, n", [(2, 8, 6), (3, 10, 5), (251, 1, 4), (2, MAX_MODULUS_BITS, 3)],
                         ids=["2^8", "3^10", "251", "2^4096"])
def test_apply_outputs_are_canonical(p, s, n):
    rng = random.Random(p + s + n)
    mod = Modulus(p, s)
    src, dst = (RingCtx(random_monic_irreducible(mod, n, rng)) for _ in range(2))
    iso = build_ring_iso(src, dst, rng)
    m = mod.m
    edges = [[m // 2] * n, [-((m - 1) // 2)] * n, [m // 2, -((m - 1) // 2)] * n, [1], [-1], [0]]
    for ctx, there, back in ((src, iso.apply, iso.apply_inverse), (dst, iso.apply_inverse, iso.apply)):
        elems = [ctx.elem(cs[:n]) for cs in edges] + [ctx.random_elem(rng) for _ in range(20)]
        for a in elems:
            image = there(a)
            assert _is_canonical(image) and back(image) == a
            # the public constructor takes any integers of the same classes
            assert there(RingElem(tuple(c + m * (i - 1) for i, c in enumerate(a.coeffs)), ctx)) == image


def test_commutative_diagram():
    rng = random.Random(5)
    m = Modulus(5, 3)
    src = RingCtx(random_monic_irreducible(m, 2, rng))
    dst = RingCtx(random_monic_irreducible(m, 2, rng))
    iso = build_ring_iso(src, dst, rng)
    field_iso = field_iso_from_root(
        src.residue_field, dst.residue_field, iso.phi_x.reduce_mod_p()
    )
    for _ in range(100):
        a = src.random_elem(rng)
        assert iso.apply(a).reduce_mod_p() == field_iso.apply(a.reduce_mod_p())


def test_matrices_are_mutually_inverse():
    rng = random.Random(6)

    for p, s, n in [(2, 2, 2), (3, 2, 3), (7, 4, 2)]:
        m = Modulus(p, s)
        src = RingCtx(random_monic_irreducible(m, n, rng))
        dst = RingCtx(random_monic_irreducible(m, n, rng))
        iso = build_ring_iso(src, dst, rng)
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert mat_mul(iso.fwd, iso.bwd, m.m) == ident
        assert mat_mul(iso.bwd, iso.fwd, m.m) == ident


def test_inverse_agrees_with_lifted_reverse_iso():
    # alternative inverse: lift the residue-level inverse root choice and
    # compare against the matrix inverse
    rng = random.Random(7)
    m = Modulus(3, 3)
    src = RingCtx(random_monic_irreducible(m, 2, rng))
    dst = RingCtx(random_monic_irreducible(m, 2, rng))
    iso = build_ring_iso(src, dst, rng)
    field_iso = field_iso_from_root(
        src.residue_field, dst.residue_field, iso.phi_x.reduce_mod_p()
    )
    reverse = ring_iso_from_field_root(dst, src, field_iso.apply_inverse(field_iso.dst.gen_class()))
    for _ in range(100):
        a = dst.random_elem(rng)
        assert iso.apply_inverse(a) == reverse.apply(a)


def test_param_and_ctx_mismatches():
    rng = random.Random(8)
    src = RingCtx(Poly([1, 1, 1], M4))
    other = RingCtx(random_monic_irreducible(Modulus(2, 3), 2, rng))
    with pytest.raises(ParamMismatch):
        build_ring_iso(src, other, rng)
    dst = RingCtx(Poly([3, 3, 1], M4))
    iso = ring_iso_from_field_root(src, dst, dst.residue_field.elem([1, 1]))
    with pytest.raises(CtxMismatch):
        iso.apply(dst.one())


def test_apply_accepts_an_equal_ctx_object():
    # the identity fast path must not narrow what apply accepts to the same object
    rng = random.Random(9)
    m = Modulus(3, 4)
    f, big_f = (random_monic_irreducible(m, 4, rng) for _ in range(2))
    src, dst = RingCtx(f), RingCtx(big_f)
    iso = build_ring_iso(src, dst, rng)
    src2, dst2 = RingCtx(Poly(f.coeffs, m)), RingCtx(Poly(big_f.coeffs, m))
    assert src2 == src and src2 is not src and dst2 == dst and dst2 is not dst
    for _ in range(20):
        a, b = src.random_elem(rng), dst.random_elem(rng)
        assert iso.apply(RingElem(a.coeffs, src2)) == iso.apply(a)
        assert iso.apply_inverse(RingElem(b.coeffs, dst2)) == iso.apply_inverse(b)
    other = RingCtx(Poly([c + 3 for c in big_f.coeffs[:-1]] + [1], m))
    assert other != dst
    with pytest.raises(CtxMismatch):
        iso.apply_inverse(other.one())
    with pytest.raises(CtxMismatch):
        iso.apply(other.one())
    assert (src2.n, src2.m) == (f.degree, m.m)  # cached by the uses above


def test_iso_from_phi_x_rejects_non_root():
    src = RingCtx(Poly([1, 1, 1], M4))
    dst = RingCtx(Poly([3, 3, 1], M4))
    with pytest.raises(InvalidIsomorphism):
        iso_from_phi_x(src, dst, dst.zero())


def test_serialization_roundtrip_via_phi_x():
    rng = random.Random(9)
    m = Modulus(2, 4)
    src = RingCtx(random_monic_irreducible(m, 3, rng))
    dst = RingCtx(random_monic_irreducible(m, 3, rng))
    iso = build_ring_iso(src, dst, rng)
    rebuilt = iso_from_phi_x(src, dst, iso.phi_x)
    assert rebuilt.fwd == iso.fwd and rebuilt.bwd == iso.bwd


def test_negative_powers_are_powers_of_the_inverse():
    rng = random.Random(3)
    units = [a for a in (R16.random_elem(rng) for _ in range(40)) if a.is_unit()]
    assert units
    for a in units:
        assert a.pow(-2) * a.pow(2) == R16.one() and a.pow(-1) == a.inv()


R16_OTHER = RingCtx(Poly([-1, 1, 1], M4))  # Z_4[y]/(y^2+y-1), the same ring presented again
C36 = CompositeCtx.from_components([R16, RingCtx(Poly([1, 0, 1], Modulus(3, 2)))])


@pytest.mark.parametrize("call, error, message", [
    (lambda: RingCtx(Poly([1, 1, 2], M4)), ValueError, "monic"),
    (lambda: hensel_iterates(R16.f, R16_OTHER.gen_class(), R16), CtxMismatch, "target ring"),
    (lambda: iso_from_phi_x(R16, R16_OTHER, R16.gen_class()), CtxMismatch, "destination ring"),
    (lambda: ring_iso_from_field_root(R16, R16_OTHER, R16_OTHER.gen_class()), CtxMismatch,
     "residue field"),
    (lambda: eval_poly(R16.f, C36.elem([5, 1])), CtxMismatch, "Galois ring"),
    (lambda: find_root(R16.f, C36, random.Random(0)), CtxMismatch, "Galois ring"),
], ids=["non-monic-f", "hensel-other-ring", "phi_x-other-ring", "root-not-in-residue-field",
        "eval_poly-composite", "find_root-composite"])
def test_ring_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("p,s,n", [(2, 8, 6), (3, 4, 4)])
def test_root_check_sees_the_top_p_adic_digit(p, s, n):
    rng = random.Random(p * 100 + s * 10 + n)
    m = Modulus(p, s)
    src, dst = (RingCtx(random_monic_irreducible(m, n, rng)) for _ in range(2))
    iso = build_ring_iso(src, dst, rng)
    near = iso.phi_x + dst.elem([p ** (s - 1)])
    value = ring_horner(src.f, near)  # f'(phi_x) p^(s-1), with f'(phi_x) a unit
    assert not value.is_zero and all(c % p ** (s - 1) == 0 for c in value.coeffs)
    with pytest.raises(InvalidIsomorphism, match="root"):
        iso_from_phi_x(src, dst, near)
    assert iso_from_phi_x(src, dst, iso.phi_x).fwd == iso.fwd
