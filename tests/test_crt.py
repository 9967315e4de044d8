import random

import pytest

from griforge import (
    CompositeCtx,
    GriInstance,
    GriParams,
    Isomorphism,
    Modulus,
    Poly,
    RingCtx,
    build_attack_lattice,
    build_composite_iso,
    build_ring_iso,
    crt_combine_elems,
    crt_combine_polys,
    field_iso_from_root,
    is_irreducible_mod_p,
    random_monic_irreducible,
    reduce_to_ffi,
)
from griforge.crt import crt_ints
from griforge.errors import (
    CtxMismatch,
    DegreeMismatch,
    ModuliNotCoprime,
    ParamMismatch,
)
from griforge.gri import instance_from_iso
from griforge.gring import iso_from_phi_x, ring_iso_from_field_root

F1 = Poly([1, 1, 1], Modulus(2, 2))  # x^2 + x + 1 mod 4
F2 = Poly([1, 0, 1], Modulus(3, 2))  # x^2 + 1 mod 9


def _composite(seed, specs=((2, 2), (3, 1)), n=2):
    rng = random.Random(seed)
    comps = [RingCtx(random_monic_irreducible(Modulus(p, s), n, rng)) for p, s in specs]
    return CompositeCtx.from_components(comps), rng


def test_combine_worked_example():
    combined = crt_combine_polys([F1, F2])
    assert combined == (1, 9, 1)
    assert CompositeCtx.from_components([RingCtx(F1), RingCtx(F2)]).m == 36


def test_combine_single_component_identity():
    combined = crt_combine_polys([F1])
    assert combined == F1.coeffs
    assert CompositeCtx.from_components([RingCtx(F1)]).m == 4


def test_combine_not_coprime():
    with pytest.raises(ModuliNotCoprime):
        crt_combine_polys([F1, Poly([1, 1, 1], Modulus(2, 3))])


def test_combine_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        crt_combine_polys([F1, Poly([1, 1, 0, 1], Modulus(3, 2))])


def test_crt_ints_roundtrip():
    rng = random.Random(0)
    for _ in range(200):
        x = rng.randrange(36)
        v = crt_ints([x % 4, x % 9], [4, 9])
        assert v % 36 == x % 36


@pytest.mark.parametrize("residues, moduli", [([1, 2], [4]), ([1], [4, 9]), ([], [])])
def test_crt_ints_rejects_empty_or_mismatched_input(residues, moduli):
    # a missing residue would otherwise pass for a residue mod the shorter product
    with pytest.raises(ValueError):
        crt_ints(residues, moduli)


def test_split_combine_identity_500():
    ctx, rng = _composite(1)
    for _ in range(500):
        a = ctx.random_elem(rng)
        parts = a.split()
        assert crt_combine_elems(parts, ctx) == a


def test_split_of_cofactor_multiple():
    ctx = CompositeCtx.from_components([RingCtx(F1), RingCtx(F2)])
    a = ctx.elem([9])  # m/p1^s1 * unit with m = 36
    mod4, mod9 = a.split()
    assert mod4 == RingCtx(F1).one()  # 9 = 1 mod 4
    assert mod9.is_zero  # 9 = 0 mod 9
    assert ctx.elem([1]).split() == (RingCtx(F1).one(), RingCtx(F2).one())


def test_composite_ctx_validations():
    with pytest.raises(ModuliNotCoprime):
        CompositeCtx.from_components(
            [RingCtx(F1), RingCtx(Poly([1, 1, 1], Modulus(2, 3)))]
        )
    with pytest.raises(DegreeMismatch):
        CompositeCtx.from_components(
            [RingCtx(F1), RingCtx(Poly([1, 2, 0, 1], Modulus(3, 2)))]
        )
    # m and f are derived from the components: f the centered, monic degree-n combination
    ctx = CompositeCtx((RingCtx(F1), RingCtx(F2)))
    assert (ctx.m, ctx.f) == (36, (1, 9, 1))


def test_composite_combined_poly_cross_check():
    ctx = CompositeCtx.from_components([RingCtx(F1), RingCtx(F2)])
    for comp in ctx.components:
        assert Poly(ctx.f, comp.modulus).coeffs == comp.f.coeffs
        assert is_irreducible_mod_p(Poly(ctx.f, comp.modulus))


def test_composite_iso_identity_components():
    ctx, rng = _composite(2)
    iso = build_composite_iso(ctx, ctx, rng)
    # components may pick any conjugate; at least round trips must hold
    for _ in range(100):
        a = ctx.random_elem(rng)
        assert iso.apply_inverse(iso.apply(a)) == a


def test_composite_iso_homomorphism_500():
    src, rng = _composite(3)
    dst, _ = _composite(4)
    iso = build_composite_iso(src, dst, rng)
    one = src.one()
    assert iso.apply(one) == dst.one()
    for _ in range(500):
        a = src.random_elem(rng)
        b = src.random_elem(rng)
        assert iso.apply(a + b) == iso.apply(a) + iso.apply(b)
        assert iso.apply(a * b) == iso.apply(a) * iso.apply(b)


def test_composite_iso_commutes_with_projections():
    src, rng = _composite(5)
    dst, _ = _composite(6)
    iso = build_composite_iso(src, dst, rng)
    for _ in range(100):
        a = src.random_elem(rng)
        image_parts = iso.apply(a).split()
        for i, part_iso in enumerate(iso.parts):
            expected = part_iso.apply(a.split()[i])
            assert image_parts[iso.dst_index[i]] == expected


def test_composite_phi_x_reduces_to_components():
    src, rng = _composite(7)
    dst, _ = _composite(8)
    iso = build_composite_iso(src, dst, rng)
    parts = iso.phi_x.split()
    for i, part_iso in enumerate(iso.parts):
        assert parts[iso.dst_index[i]] == part_iso.phi_x


def test_composite_iso_param_mismatch():
    src, rng = _composite(9)
    other, _ = _composite(10, specs=((2, 1), (3, 1)))
    with pytest.raises(ParamMismatch):
        build_composite_iso(src, other, rng)


def test_composite_components_order_independent():
    rng = random.Random(11)
    c1 = RingCtx(random_monic_irreducible(Modulus(2, 2), 2, rng))
    c2 = RingCtx(random_monic_irreducible(Modulus(3, 1), 2, rng))
    src = CompositeCtx.from_components([c1, c2])
    d1 = RingCtx(random_monic_irreducible(Modulus(3, 1), 2, rng))
    d2 = RingCtx(random_monic_irreducible(Modulus(2, 2), 2, rng))
    dst = CompositeCtx.from_components([d1, d2])  # reversed prime order
    iso = build_composite_iso(src, dst, rng)
    for _ in range(50):
        a = src.random_elem(rng)
        assert iso.apply_inverse(iso.apply(a)) == a


def _three_component_iso():
    src, rng = _composite(12, specs=((2, 3), (3, 2), (5, 1)), n=3)
    dst, _ = _composite(13, specs=((5, 1), (2, 3), (3, 2)), n=3)
    return src, dst, build_composite_iso(src, dst, rng)


def test_composite_iso_is_the_crt_combination_of_its_parts():
    src, dst, iso = _three_component_iso()
    assert isinstance(iso, Isomorphism) and iso.dst_index == (1, 2, 0)
    for i, part in enumerate(iso.parts):
        m = src.components[i].m
        assert m == dst.components[iso.dst_index[i]].m
        for combined, own in ((iso.fwd, part.fwd), (iso.bwd, part.bwd)):
            assert [[x % m for x in row] for row in combined] == [[x % m for x in row] for row in own]


def test_composite_iso_pinned_values():
    # recorded from the split-map-recombine construction this one replaced
    src, dst, iso = _three_component_iso()
    assert (src.f, dst.f, src.m) == ((23, 124, -59, 1), (91, -49, -50, 1), 360)
    assert iso.phi_x.coeffs == (-1, -56, 9)
    assert iso.apply(src.elem([1, 2, 3])).coeffs == (56, 125, -141)
    assert iso.apply_inverse(dst.elem([1, 2, 3])).coeffs == (-96, 41, 102)


def test_element_of_another_composite_ring_is_a_ctx_mismatch():
    src, dst, iso = _three_component_iso()
    a, b = src.one(), dst.one()
    for op in (lambda: a + b, lambda: a * b, lambda: iso.apply(b), lambda: iso.apply_inverse(a)):
        with pytest.raises(CtxMismatch):
            op()


def test_composite_element_repr():
    ctx = CompositeCtx.from_components([RingCtx(F1), RingCtx(F2)])
    assert repr(ctx.elem([5, 1])) == "x + 5 in GR(2^2, 2) x GR(3^2, 2)"
    assert repr(RingCtx(F1).elem([1, 1])) == "x + 1 in GR(2^2, 2)"


GALOIS_ONLY = {
    "rep": lambda e: e.rep,
    "reduce_mod_p": lambda e: e.reduce_mod_p(),
    "is_unit": lambda e: e.is_unit(),
    "inv": lambda e: e.inv(),
    "pow-1": lambda e: e.pow(-1),
}


@pytest.mark.parametrize("name", [*GALOIS_ONLY, "split"])
def test_a_method_for_the_other_kind_of_ring_is_a_ctx_mismatch(name):
    if name == "split":
        elem, call, kind = RingCtx(F1).elem([1, 1]), lambda e: e.split(), "a composite"
    else:
        ctx = CompositeCtx.from_components([RingCtx(F1), RingCtx(F2)])
        elem, call, kind = ctx.elem([5, 1]), GALOIS_ONLY[name], "a Galois"
    with pytest.raises(CtxMismatch, match=f"needs an element of {kind} ring"):
        call(elem)


# Entry points written for one kind of ring, called with the other: (c, g) are a composite
# ring and a Galois ring, and each entry names the kind of ring the refusal asks for.
ENTRY_POINTS = {
    "iso_from_phi_x": ("a Galois", lambda c, g, rng: iso_from_phi_x(c, c, c.one())),
    "build_ring_iso": ("a Galois", lambda c, g, rng: build_ring_iso(c, c, rng)),
    "field_iso_from_root": ("a Galois", lambda c, g, rng: field_iso_from_root(c, c, c.one())),
    "ring_iso_from_field_root":
        ("a Galois", lambda c, g, rng: ring_iso_from_field_root(c, c, c.one())),
    "instance_from_iso": ("a Galois", lambda c, g, rng: instance_from_iso(
        build_composite_iso(c, c, random.Random(1)), 1, 2, rng)),
    "build_attack_lattice":
        ("a Galois", lambda c, g, rng: build_attack_lattice([c.one()], Modulus(2, 2))),
    "reduce_to_ffi": ("a Galois", lambda c, g, rng: reduce_to_ffi(
        GriInstance(GriParams(3, 2, 2, 1, 1), c, (c.one(),), None))),
    "crt_combine_elems": ("a composite", lambda c, g, rng: crt_combine_elems([g.one()], g)),
    "build_composite_iso": ("a composite", lambda c, g, rng: build_composite_iso(g, g, rng)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_an_entry_point_for_the_other_kind_of_ring_is_a_ctx_mismatch(name):
    kind, call = ENTRY_POINTS[name]
    galois = RingCtx(F1)
    rng = random.Random(0)
    with pytest.raises(CtxMismatch, match=f"needs an element of {kind} ring"):
        call(CompositeCtx.from_components([galois, RingCtx(F2)]), galois, rng)
    assert rng.getstate() == random.Random(0).getstate()  # refused before any draw


@pytest.mark.parametrize("call, error, message", [
    (lambda ctx, parts: crt_combine_polys([]), ValueError, "at least one"),
    (lambda ctx, parts: crt_combine_polys([F1, Poly([1, 0, 2], Modulus(3, 2))]), ValueError,
     "monic"),
    (lambda ctx, parts: crt_combine_elems(parts[:1], ctx), ParamMismatch,
     "one element per component"),
    (lambda ctx, parts: crt_combine_elems(parts[::-1], ctx), ParamMismatch, "wrong ring"),
], ids=["no-polys", "non-monic", "elems-wrong-count", "elems-wrong-ring"])
def test_combine_refusals(call, error, message):
    ctx = CompositeCtx.from_components([RingCtx(F1), RingCtx(F2)])
    with pytest.raises(error, match=message):
        call(ctx, ctx.elem([5, 1]).split())
