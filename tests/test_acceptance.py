"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete. Tolerances and trial counts are pinned here, not
configurable.
"""

import functools
import math
import random
from fractions import Fraction

from griforge import (
    CompositeCtx,
    Modulus,
    Poly,
    RingCtx,
    build_attack_lattice,
    build_composite_iso,
    build_ring_iso,
    crt_combine_elems,
    crt_combine_polys,
    eval_poly,
    field_iso_from_root,
    find_root,
    gen_instance,
    hensel_iterates,
    hensel_lift,
    in_lattice,
    lll_reduce,
    oracle_strategy,
    random_guess_strategy,
    random_monic_irreducible,
    reduce_to_ffi,
    run_attack,
    run_distinguisher_experiment,
)
from griforge.cli import load_instance, main as cli_main, serialize_instance
from helpers import (
    det_fraction,
    enumerate_shortest,
    is_lll_reduced,
    mat_mul,
    transform_between,
)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL  {desc}")
                raise
            print(f"[criterion {num}] PASS  {desc}")

        return wrapper

    return deco


ISO_PARAM_SETS = [
    (2, 1, 2), (2, 2, 4), (2, 3, 8), (2, 4, 2), (2, 2, 8),
    (3, 1, 4), (3, 2, 2), (3, 3, 4), (3, 4, 8), (3, 1, 8),
    (5, 1, 8), (5, 2, 2), (5, 3, 4), (5, 4, 2), (5, 1, 4),
    (7, 1, 2), (7, 2, 8), (7, 3, 2), (7, 4, 4), (7, 2, 4),
]


@criterion(1, "isomorphism correctness over 20 parameter sets")
def test_criterion_1_isomorphism_suite():
    assert len(ISO_PARAM_SETS) == 20
    assert {p for p, _, _ in ISO_PARAM_SETS} == {2, 3, 5, 7}
    assert {s for _, s, _ in ISO_PARAM_SETS} == {1, 2, 3, 4}
    assert {n for _, _, n in ISO_PARAM_SETS} == {2, 4, 8}
    for idx, (p, s, n) in enumerate(ISO_PARAM_SETS):
        rng = random.Random(1000 + idx)
        m = Modulus(p, s)
        src = RingCtx(random_monic_irreducible(m, n, rng))
        dst = RingCtx(random_monic_irreducible(m, n, rng))
        iso = build_ring_iso(src, dst, rng)
        for _ in range(500):
            a = src.random_elem(rng)
            b = src.random_elem(rng)
            assert iso.apply(a + b) == iso.apply(a) + iso.apply(b)
            assert iso.apply(a * b) == iso.apply(a) * iso.apply(b)
        assert iso.apply(src.one()) == dst.one()
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert mat_mul(iso.fwd, iso.bwd, m.m) == ident
        assert mat_mul(iso.bwd, iso.fwd, m.m) == ident
        field_iso = field_iso_from_root(
            src.residue_field, dst.residue_field, iso.phi_x.reduce_mod_p()
        )
        for _ in range(100):
            a = src.random_elem(rng)
            assert iso.apply(a).reduce_mod_p() == field_iso.apply(a.reduce_mod_p())


@criterion(2, "lifted root unique by exhaustive enumeration (p^(s*n) <= 81)")
def test_criterion_2_hensel_vs_brute_force():
    cases = [
        (p, s, n)
        for p in (2, 3, 5, 7)
        for s in range(1, 7)
        for n in range(1, 7)
        if p ** (s * n) <= 81
    ]
    assert (2, 2, 2) in cases and (3, 2, 1) in cases and (2, 3, 1) in cases
    for idx, (p, s, n) in enumerate(cases):
        rng = random.Random(2000 + idx)
        m = Modulus(p, s)
        g = random_monic_irreducible(m, n, rng)
        ctx = RingCtx(random_monic_irreducible(m, n, rng))
        root_bar = find_root(g.reduce_mod_p(), ctx.residue_field, rng)
        lifted = hensel_lift(g, ctx.elem(root_bar.rep.coeffs), ctx)
        matching = [
            a
            for a in ctx.elements()
            if eval_poly(g, a).is_zero and a.reduce_mod_p() == root_bar
        ]
        assert matching == [lifted], (p, s, n)


@criterion(3, "lifting chain invariant g(beta_i) in (p^(i+1)) across 100 lifts")
def test_criterion_3_lifting_chain():
    done = 0
    idx = 0
    while done < 100:
        p = (2, 3, 5, 7)[idx % 4]
        s = 2 + (idx % 5)  # s in 2..6
        n = 1 + (idx % 3)
        idx += 1
        rng = random.Random(3000 + idx)
        m = Modulus(p, s)
        g = random_monic_irreducible(m, n, rng)
        ctx = RingCtx(random_monic_irreducible(m, n, rng))
        root_bar = find_root(g.reduce_mod_p(), ctx.residue_field, rng)
        iters = hensel_iterates(g, ctx.elem(root_bar.rep.coeffs), ctx)
        assert len(iters) == s
        for i, beta in enumerate(iters):
            val = eval_poly(g, beta)
            e = p ** min(i + 1, s)
            assert all(c % e == 0 for c in val.rep.coeffs), (p, s, n, i)
        assert eval_poly(g, iters[-1]).is_zero
        done += 1


@criterion(4, "LLL: size-reduction, Lovasz, unimodularity, shortest-vector factor")
def test_criterion_4_lll_correctness():
    delta = Fraction(99, 100)
    rng = random.Random(4000)
    done = 0
    while done < 50:
        rank = rng.randrange(2, 7)
        rows = [[rng.randint(-100, 100) for _ in range(rank)] for _ in range(rank)]
        if det_fraction(rows) == 0:
            continue
        reduced = lll_reduce(rows, delta)
        assert is_lll_reduced(reduced, delta)
        u = transform_between(rows, reduced)
        assert u is not None and abs(det_fraction(u)) == 1
        _, shortest_sq = enumerate_shortest(reduced)
        first_sq = sum(x * x for x in reduced[0])
        assert first_sq <= 2 ** (rank - 1) * shortest_sq
        done += 1


@criterion(5, "attack finds true b_j at weak parameters, nothing when hardened")
def test_criterion_5_attack_success():
    weak_hits = 0
    for seed in range(10):
        inst = gen_instance(2, 8, 6, 1, 12, random.Random(5000 + seed))
        report = run_attack(inst.public_only())
        d = build_attack_lattice(inst.images, inst.dst.modulus)
        true_bjs = set()
        for j in range(inst.params.n):
            v = tuple(a.coeff_vector()[j] for a in inst.secret.preimages)
            true_bjs.add(v)
            true_bjs.add(tuple(-x for x in v))
        found = [c for c in report.candidates if c.vector in true_bjs]
        if found:
            for cand in found:
                assert in_lattice(cand.vector, d)
                assert max(map(abs, cand.vector)) <= 1
            weak_hits += 1
    assert weak_hits >= 8, f"true b_j recovered in only {weak_hits}/10 runs"

    hardened_empty = 0
    for seed in range(10):
        inst = gen_instance(2, 8, 6, 2**6, 12, random.Random(5100 + seed))
        report = run_attack(inst.public_only())
        if not report.candidates:
            hardened_empty += 1
    assert hardened_empty >= 8, f"hardened run empty in only {hardened_empty}/10 runs"


@criterion(6, "reduction modulo p preserves preimages exactly (100 instances)")
def test_criterion_6_reduce_to_ffi():
    specs = [(5, 3, 2, 1), (5, 2, 1, 2), (7, 2, 2, 3), (3, 2, 1, 1)]
    done = 0
    idx = 0
    while done < 100:
        p, s, n, beta = specs[idx % len(specs)]
        rng = random.Random(6000 + idx)
        idx += 1
        inst = gen_instance(p, s, n, beta, 2, rng)
        red = reduce_to_ffi(inst)
        assert red.params.s == 1
        for before, after in zip(inst.secret.preimages, red.secret.preimages):
            assert before.rep.coeffs == after.rep.coeffs
        for before, after in zip(inst.images, red.images):
            assert after.rep == before.rep.reduce_mod_p()
        for pre, img in zip(red.secret.preimages, red.images):
            assert red.secret.iso.apply(pre) == img
        done += 1


@criterion(7, "distinguisher calibration: random near 1/2, oracle >= 0.99")
def test_criterion_7_distinguisher_calibration():
    from griforge import GriParams

    params = GriParams(2, 8, 8, 1, 2)
    rng = random.Random(7000)
    inst = gen_instance(*params, rng)
    trials = 10_000

    report = run_distinguisher_experiment(
        params, random_guess_strategy(random.Random(7001)), trials, rng, instance=inst
    )
    sigma = math.sqrt(0.25 / trials)
    assert abs(report.rate - 0.5) <= 3 * sigma, report.rate

    # uniform false positives occur with probability (3/256)^8, negligible
    report = run_distinguisher_experiment(
        params, oracle_strategy(inst.secret, params.beta), trials, rng, instance=inst
    )
    assert report.rate >= 0.99, report.rate


@criterion(8, "CRT composition: worked example, split/combine, projections")
def test_criterion_8_crt():
    f1 = Poly([1, 1, 1], Modulus(2, 2))
    f2 = Poly([1, 0, 1], Modulus(3, 2))
    assert crt_combine_polys([f1, f2]) == (1, 9, 1)
    assert CompositeCtx.from_components([RingCtx(f1), RingCtx(f2)]).m == 36

    rng = random.Random(8000)
    src = CompositeCtx.from_components(
        [
            RingCtx(random_monic_irreducible(Modulus(2, 2), 2, rng)),
            RingCtx(random_monic_irreducible(Modulus(3, 1), 2, rng)),
        ]
    )
    dst = CompositeCtx.from_components(
        [
            RingCtx(random_monic_irreducible(Modulus(2, 2), 2, rng)),
            RingCtx(random_monic_irreducible(Modulus(3, 1), 2, rng)),
        ]
    )
    for _ in range(500):
        a = src.random_elem(rng)
        assert crt_combine_elems(a.split(), src) == a
    iso = build_composite_iso(src, dst, rng)
    for _ in range(100):
        a = src.random_elem(rng)
        b = src.random_elem(rng)
        assert iso.apply(a * b) == iso.apply(a) * iso.apply(b)
        assert iso.apply(a + b) == iso.apply(a) + iso.apply(b)
        image_parts = iso.apply(a).split()
        source_parts = a.split()
        for i, part in enumerate(iso.parts):
            assert image_parts[iso.dst_index[i]] == part.apply(source_parts[i])


@criterion(9, "CLI determinism, byte-identical round trips, clean public exports")
def test_criterion_9_cli(tmp_path):
    def run(*argv):
        return cli_main(list(argv))

    for name in ("one", "two"):
        assert run(
            "gen-params", "--p", "2", "--s", "8", "--n", "6", "--seed", "7",
            "--beta", "1", "--k", "12", "--out", str(tmp_path / f"params_{name}.txt"),
        ) == 0
        assert run(
            "make-iso", "--in", str(tmp_path / f"params_{name}.txt"),
            "--seed", "8", "--out", str(tmp_path / f"iso_{name}.txt"),
        ) == 0
        assert run(
            "sample", "--in", str(tmp_path / f"iso_{name}.txt"),
            "--seed", "9", "--out", str(tmp_path / f"inst_{name}.txt"),
        ) == 0
        assert run(
            "sample", "--in", str(tmp_path / f"iso_{name}.txt"), "--seed", "9",
            "--public-only", "--out", str(tmp_path / f"pub_{name}.txt"),
        ) == 0
        assert run(
            "attack", "--in", str(tmp_path / f"pub_{name}.txt"),
            "--out", str(tmp_path / f"report_{name}.txt"),
        ) == 0

    for stem in ("params", "iso", "inst", "pub", "report"):
        a = (tmp_path / f"{stem}_one.txt").read_bytes()
        b = (tmp_path / f"{stem}_two.txt").read_bytes()
        assert a == b, f"{stem} files differ between identical seeded runs"

    inst_text = (tmp_path / "inst_one.txt").read_text()
    assert serialize_instance(load_instance(inst_text)) == inst_text

    public_text = (tmp_path / "pub_one.txt").read_text()
    assert "secret" not in public_text
    assert load_instance(public_text).secret is None
