import functools
import hashlib
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from griforge import (
    ChiBeta,
    ExperimentReport,
    GriParams,
    Modulus,
    Poly,
    RingCtx,
    RingElem,
    challenge_from_instance,
    gen_instance,
    instance_from_iso,
    is_irreducible_mod_p,
    oracle_strategy,
    random_guess_strategy,
    random_monic_irreducible,
    reduce_to_ffi,
    run_distinguisher_experiment,
    wilson_interval,
)
from griforge import linalg, poly
from griforge.cli import serialize_instance
from griforge.errors import BetaOutOfRange, BetaTooLarge, CtxMismatch
from helpers import full_pullback_guess, reference_experiment


def _ctx(p, s, n, seed):
    return RingCtx(random_monic_irreducible(Modulus(p, s), n, random.Random(seed)))


def test_sample_chi_bounds_and_determinism():
    ctx = _ctx(2, 3, 4, 0)
    chi = ChiBeta(1, ctx)
    rng = random.Random(7)
    for _ in range(50):
        a = chi.sample(rng)
        assert a.sup_norm() <= 1
    assert chi.sample(random.Random(3)) == chi.sample(random.Random(3))


def test_sample_chi_histogram_uniform_3sigma():
    ctx = _ctx(5, 2, 2, 1)
    beta = 2
    chi = ChiBeta(beta, ctx)
    rng = random.Random(11)
    counts = {v: 0 for v in range(-beta, beta + 1)}
    samples = 10_000
    for _ in range(samples):
        for c in chi.sample(rng).coeff_vector():
            counts[c] += 1
    total = samples * ctx.n
    q = 1 / (2 * beta + 1)
    sigma = math.sqrt(total * q * (1 - q))
    for v, count in counts.items():
        assert abs(count - total * q) <= 3 * sigma, (v, count)


def test_chi_beta_range_validation():
    ctx = _ctx(2, 2, 2, 2)  # p^s = 4: only beta = 1 is allowed
    ChiBeta(1, ctx)
    with pytest.raises(BetaOutOfRange):
        ChiBeta(2, ctx)
    with pytest.raises(BetaOutOfRange):
        ChiBeta(0, ctx)


def test_gen_instance_invariants():
    rng = random.Random(3)
    inst = gen_instance(2, 2, 2, 1, 4, rng)
    assert len(inst.images) == 4
    for pre, img in zip(inst.secret.preimages, inst.images):
        assert pre.sup_norm() <= 1
        assert inst.secret.iso.apply(pre) == img
        assert inst.secret.iso.apply_inverse(img) == pre


def test_gen_instance_s1_collapses_to_field_case():
    rng = random.Random(4)
    inst = gen_instance(5, 1, 3, 2, 3, rng)
    assert inst.params.s == 1
    assert inst.dst.m == 5
    for pre, img in zip(inst.secret.preimages, inst.images):
        assert inst.secret.iso.apply(pre) == img


def test_gen_instance_runs_ben_or_once_per_polynomial(monkeypatch):
    # random_monic_irreducible, RingCtx's residue field and find_root all need the
    # verdict of f's reduction, the first two that of big_f's: each is computed once
    runs = Counter()
    ben_or = poly._ben_or
    monkeypatch.setattr(poly, "_ben_or", lambda fb, p: runs.update([tuple(fb)]) or ben_or(fb, p))
    inst = gen_instance(2, 32, 24, 1, 12, random.Random(5))
    f, big_f = inst.secret.src.f, inst.dst.f
    fb, big_fb = (tuple(c % 2 for c in g.coeffs) for g in (f, big_f))
    assert fb != big_fb and runs[fb] == 1 and runs[big_fb] == 1
    assert is_irreducible_mod_p(Poly(f.coeffs, f.modulus))  # a new object is tested again
    assert runs[fb] == 2


def test_public_only_strips_secret():
    inst = gen_instance(2, 3, 2, 1, 2, random.Random(5))
    pub = inst.public_only()
    assert pub.secret is None
    assert pub.images == inst.images
    assert inst.public_only() == pub and pub.public_only() is pub
    with pytest.raises(ValueError):
        challenge_from_instance(pub, random.Random(0))


@pytest.mark.parametrize("cell, after_gen, after_sample, after_challenge, digest", [
    ((2, 8, 6, 1, 12), 10643030499566507882, 12055087343794823666, 3251308380919028487,
     "ff0e0e3c61b40ad6"),
    ((3, 4, 5, 2, 8), 11874448169843732621, 15354317719442120422, 11602582801581009584,
     "e5aee3383b49dca4"),
    ((2, 32, 24, 1, 24), 2636374105438800942, 8130783389822798934, 14816814523572752621,
     "49c8426001b38903"),
])
def test_seeded_streams_are_pinned(cell, after_gen, after_sample, after_challenge, digest):
    # a seed fixes every output and the generator state after each step; the
    # figures were taken from the randrange/randint samplers the draws replaced
    rng = random.Random(11)
    inst = gen_instance(*cell, rng)
    assert rng.getrandbits(64) == after_gen
    again = instance_from_iso(inst.secret.iso, cell[3], cell[4], rng)
    assert rng.getrandbits(64) == after_sample
    pair, _ = challenge_from_instance(inst, rng)
    assert rng.getrandbits(64) == after_challenge
    text = serialize_instance(inst) + serialize_instance(again)
    text += repr([e.coeffs for e in pair])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_decisional_hidden_bit_balanced():
    inst = gen_instance(2, 3, 2, 1, 2, random.Random(6))
    rng = random.Random(7)
    trials = 10_000
    ones = sum(challenge_from_instance(inst, rng)[1] for _ in range(trials))
    sigma = math.sqrt(trials * 0.25)
    assert abs(ones - trials / 2) <= 3 * sigma


def test_decisional_image_member_is_short_via_secret():
    inst = gen_instance(3, 2, 3, 1, 2, random.Random(8))
    rng = random.Random(9)
    for _ in range(50):
        pair, bit = challenge_from_instance(inst, rng)
        image = pair[bit]
        assert inst.secret.iso.apply_inverse(image).sup_norm() <= 1


def test_random_guess_rate_near_half():
    from griforge import GriParams

    params = GriParams(2, 2, 2, 1, 2)
    rng = random.Random(11)
    report = run_distinguisher_experiment(
        params, random_guess_strategy(random.Random(12)), 2000, rng
    )
    assert 0.45 <= report.rate <= 0.55
    assert report.wilson_low < 0.5 < report.wilson_high


def test_oracle_strategy_wins():
    from griforge import GriParams

    params = GriParams(2, 4, 3, 1, 2)
    rng = random.Random(13)
    inst = gen_instance(*params, rng)
    report = run_distinguisher_experiment(
        params, oracle_strategy(inst.secret, params.beta), 500, rng, instance=inst
    )
    assert report.rate >= 0.99


def test_oracle_false_positive_rate_matches_prediction():
    # pulling a uniform element back gives a uniform element, so all n
    # coefficients land in [-beta, beta] with probability ((2b+1)/p^s)^n
    rng = random.Random(14)
    inst = gen_instance(2, 2, 2, 1, 2, rng)
    iso = inst.secret.iso
    trials = 10_000
    hits = 0
    for _ in range(trials):
        u = inst.dst.random_elem(rng)
        if iso.apply_inverse(u).sup_norm() <= 1:
            hits += 1
    expected = (3 / 4) ** 2
    sigma = math.sqrt(trials * expected * (1 - expected))
    assert abs(hits - trials * expected) <= 3 * sigma


@pytest.mark.parametrize("cell", [
    (2, 8, 6, 1, 12), (2, 32, 24, 1, 12), (3, 10, 8, 4, 12), (13, 1, 8, 2, 12),
])
def test_oracle_matches_full_pullback_on_seeded_challenges(cell):
    # the coefficient-0 screen only skips candidates the full check rejects
    rng = random.Random(sum(cell))
    inst = gen_instance(*cell, rng)
    beta = cell[3]
    guess = oracle_strategy(inst.secret, beta)
    for _ in range(500):
        pair, _ = challenge_from_instance(inst, rng)
        assert guess(pair) == full_pullback_guess(inst.secret, beta, pair)


def test_oracle_matches_full_pullback_on_crafted_pairs():
    rng = random.Random(21)
    inst = gen_instance(2, 32, 24, 1, 12, rng)
    secret, beta, dst = inst.secret, 1, inst.dst
    guess = oracle_strategy(secret, beta)
    image, noise = inst.images[0], dst.random_elem(rng)
    # coefficient 0 is 0, so the screen lets it through; coefficient 1 is too long
    long1 = secret.iso.apply(secret.src.elem([0, beta + 1]))
    cases = {
        (noise, dst.random_elem(rng)): 0,
        (image, inst.images[1]): 0,
        (noise, image): 1,
        (long1, image): 1,
        (long1, noise): 0,
    }
    for (a, b), want in cases.items():
        assert guess((a, b)) == want
        assert full_pullback_guess(secret, beta, (a, b)) == want


@pytest.mark.parametrize("p, s, n", [(2, 2, 2), (5, 1, 2), (3, 2, 2)])
def test_oracle_matches_full_pullback_on_every_pair_and_beta(p, s, n):
    # every pair of a small ring, for beta from -1 past m/2, where the screen
    # never fires (and beta < 0, where only the zero pull-back is short)
    inst = gen_instance(p, s, n, 1, 2, random.Random(p + s + n))
    elems = list(inst.dst.elements())
    m = p**s
    for beta in range(-1, m // 2 + 2):
        guess = oracle_strategy(inst.secret, beta)
        for a in elems:
            for b in elems:
                pair = (a, b)
                assert guess(pair) == full_pullback_guess(inst.secret, beta, pair)


def test_oracle_ctx_equal_but_not_identical_and_foreign():
    rng = random.Random(22)
    inst = gen_instance(3, 10, 8, 4, 12, rng)
    guess = oracle_strategy(inst.secret, 4)
    twin = RingCtx(Poly(inst.dst.f.coeffs, inst.dst.modulus))
    assert twin == inst.dst and twin is not inst.dst
    for _ in range(200):
        pair, bit = challenge_from_instance(inst, rng)
        view = tuple(RingElem(e.coeffs, twin) for e in pair)
        assert guess(view) == full_pullback_guess(inst.secret, 4, view) == bit
    other = gen_instance(3, 10, 8, 4, 12, random.Random(23)).dst
    assert other != inst.dst
    foreign = (other.random_elem(rng), inst.images[0])
    with pytest.raises(CtxMismatch):
        guess(foreign)
    with pytest.raises(CtxMismatch):
        full_pullback_guess(inst.secret, 4, foreign)
    # a uniform element of inst.dst is screened out, so a rule that did not
    # check the first candidate's ring would answer 0 for (foreign, noise)
    alien, noise = other.random_elem(rng), inst.dst.random_elem(rng)
    for pair in ((alien, noise), (noise, alien)):
        with pytest.raises(CtxMismatch):
            guess(pair)
        with pytest.raises(CtxMismatch):
            full_pullback_guess(inst.secret, 4, pair)


def test_oracle_pulls_back_only_a_uniform_first_candidate(monkeypatch):
    # the oracle tests a pull-back's shortness on its packed sum (linalg._in_box)
    rng = random.Random(26)
    inst = gen_instance(2, 32, 24, 1, 12, rng)
    guess = oracle_strategy(inst.secret, 1)
    calls = []
    in_box = linalg._in_box
    monkeypatch.setattr(linalg, "_in_box", lambda v, *rest: calls.append(v) or in_box(v, *rest))
    counts = {0: set(), 1: set()}
    for _ in range(400):
        pair, bit = challenge_from_instance(inst, rng)
        before = len(calls)
        assert guess(pair) == bit
        counts[bit].add(len(calls) - before)
    assert counts == {0: {0}, 1: {1}}


def test_challenge_beta_checked_on_every_use():
    inst = gen_instance(2, 3, 2, 1, 2, random.Random(24))
    bad = replace(inst, params=inst.params._replace(beta=4))
    for _ in range(2):
        with pytest.raises(BetaOutOfRange):
            challenge_from_instance(bad, random.Random(25))
    assert challenge_from_instance(inst, random.Random(25))[0]


def test_trials_precondition():
    from griforge import GriParams

    with pytest.raises(ValueError):
        run_distinguisher_experiment(
            GriParams(2, 2, 2, 1, 2), lambda pair: 0, 0, random.Random(0)
        )


def test_experiment_deterministic_given_seed():
    from griforge import GriParams

    params = GriParams(2, 3, 2, 1, 2)
    r1 = run_distinguisher_experiment(
        params, random_guess_strategy(random.Random(1)), 200, random.Random(2)
    )
    r2 = run_distinguisher_experiment(
        params, random_guess_strategy(random.Random(1)), 200, random.Random(2)
    )
    assert r1 == r2


@functools.cache
def _experiment_instance(cell):
    return gen_instance(*cell, random.Random(100 + sum(cell)))


def _recorded_experiment(run, cell, strategy, trials=200):
    """run's report, the next draw of its rng after the run, and the sha256 of the pairs
    the strategy saw with which member of each pulls back short (the hidden bit)."""
    inst = _experiment_instance(cell)
    secret, beta = inst.secret, cell[3]
    inner = {
        "oracle": oracle_strategy(secret, beta),
        "random-guess": random_guess_strategy(random.Random(7)),
        "recording": lambda pair: 0,
    }[strategy]
    seen = hashlib.sha256()

    def recorder(pair):
        short = [secret.iso.apply_inverse(e).sup_norm() <= beta for e in pair]
        seen.update(repr(([e.coeffs for e in pair], short)).encode())
        return inner(pair)

    rng = random.Random(31)
    report = run(GriParams(*cell), recorder, trials, rng, instance=inst)
    return report, rng.getrandbits(64), seen.hexdigest()[:16]


EXPERIMENT_PINS = [
    ((2, 8, 6, 1, 12), "oracle", 200, 16353001820561517125, "a2cf24d0f2c14e0b"),
    ((2, 8, 6, 1, 12), "random-guess", 100, 16353001820561517125, "a2cf24d0f2c14e0b"),
    ((2, 8, 6, 1, 12), "recording", 108, 16353001820561517125, "a2cf24d0f2c14e0b"),
    ((2, 32, 24, 1, 12), "oracle", 200, 16353001820561517125, "c576b9798e4fdc25"),
    ((2, 32, 24, 1, 12), "random-guess", 98, 16353001820561517125, "c576b9798e4fdc25"),
    ((2, 32, 24, 1, 12), "recording", 94, 16353001820561517125, "c576b9798e4fdc25"),
    ((3, 10, 8, 4, 12), "oracle", 200, 16353001820561517125, "7a038124c55bc8b3"),
    ((3, 10, 8, 4, 12), "random-guess", 99, 16353001820561517125, "7a038124c55bc8b3"),
    ((3, 10, 8, 4, 12), "recording", 101, 16353001820561517125, "7a038124c55bc8b3"),
    ((13, 1, 8, 2, 12), "oracle", 200, 16353001820561517125, "f375d62f408b8652"),
    ((13, 1, 8, 2, 12), "random-guess", 86, 16353001820561517125, "f375d62f408b8652"),
    ((13, 1, 8, 2, 12), "recording", 106, 16353001820561517125, "f375d62f408b8652"),
]


@pytest.mark.parametrize("cell, strategy, successes, after, digest", EXPERIMENT_PINS)
def test_experiment_is_pinned(cell, strategy, successes, after, digest):
    # the figures were taken with a new Random per trial and randrange(2) for the bit
    report, got_after, got_digest = _recorded_experiment(run_distinguisher_experiment, cell, strategy)
    low, high = wilson_interval(successes, 200)
    assert report == ExperimentReport(200, successes, successes / 200, low, high)
    assert (got_after, got_digest) == (after, digest)
    assert _recorded_experiment(reference_experiment, cell, strategy) == (report, after, digest)


def test_strategy_sees_only_the_pair():
    inst = _experiment_instance((2, 8, 6, 1, 12))
    seen = []

    def recorder(pair):
        seen.append(pair)
        return 0

    run_distinguisher_experiment(inst.params, recorder, 50, random.Random(3), instance=inst)
    assert len(seen) == 50
    for pair in seen:
        assert type(pair) is tuple and len(pair) == 2
        assert all(type(e) is RingElem and e.ctx is inst.dst for e in pair)


def test_experiment_generating_its_instance_matches_reference():
    params = GriParams(2, 8, 6, 1, 12)
    runs = []
    for run in (run_distinguisher_experiment, reference_experiment):
        rng = random.Random(41)
        report = run(params, random_guess_strategy(random.Random(42)), 300, rng)
        runs.append((report, rng.getrandbits(64)))
    assert runs[0] == runs[1]


def test_wilson_interval_sane():
    low, high = wilson_interval(50, 100)
    assert 0.40 < low < 0.5 < high < 0.60
    low, high = wilson_interval(0, 10)
    assert low == 0.0 and high < 0.35
    for successes, trials in ((0, 0), (5, 3), (-1, 3)):
        with pytest.raises(ValueError, match="successes <= trials"):
            wilson_interval(successes, trials)


def test_reduce_to_ffi_preserves_preimages():
    rng = random.Random(15)
    inst = gen_instance(5, 2, 2, 1, 3, rng)
    red = reduce_to_ffi(inst)
    assert red.params.s == 1 and red.dst.m == 5
    for before, after in zip(inst.secret.preimages, red.secret.preimages):
        assert before.rep.coeffs == after.rep.coeffs
    for before, after in zip(inst.images, red.images):
        assert after.rep == before.rep.reduce_mod_p()
    # reduced instance is still a consistent instance
    for pre, img in zip(red.secret.preimages, red.images):
        assert red.secret.iso.apply(pre) == img


def test_reduce_to_ffi_commutes_with_public_reduction():
    rng = random.Random(16)
    inst = gen_instance(7, 3, 2, 2, 3, rng)
    red = reduce_to_ffi(inst)
    # reducing then mapping equals mapping then reducing on all images
    for pre, img in zip(inst.secret.preimages, inst.images):
        pre_red = red.secret.src.elem(pre.rep.reduce_mod_p().coeffs)
        assert red.secret.iso.apply(pre_red).rep == img.rep.reduce_mod_p()


def test_reduce_to_ffi_beta_too_large():
    inst = gen_instance(2, 3, 2, 1, 2, random.Random(17))
    with pytest.raises(BetaTooLarge):
        reduce_to_ffi(inst)  # 1 >= 2/2 violates the strict bound


def test_reduce_to_ffi_public_only():
    inst = gen_instance(5, 2, 2, 1, 2, random.Random(18)).public_only()
    red = reduce_to_ffi(inst)
    assert red.secret is None and red.params.s == 1



@pytest.mark.parametrize("call, message", [
    (lambda inst: instance_from_iso(inst.secret.iso, 1, 0, random.Random(1)), "k must be >= 1"),
    (lambda inst: run_distinguisher_experiment(
        inst.params._replace(k=2), random_guess_strategy(random.Random(1)), 10,
        random.Random(2), instance=inst), "does not match the parameters"),
], ids=["k-0", "instance-of-other-params"])
def test_instance_and_experiment_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call(gen_instance(2, 3, 4, 1, 3, random.Random(5)))
