"""GRI problem instances: sampling short elements, public images,
decisional pairs, and the distinguisher experiment harness.

An instance is a pair of secretly isomorphic ring presentations
together with the public images of k short source elements. The
decisional game presents one image of a short element next to one
uniform element and asks which is which. The instance is public before
any pair is drawn, so a strategy takes what it reads of the instance
when it is built and is then called with the pair alone.

A trial's arithmetic is two packed sums (see `linalg.vec_mat`) and no
throwaway element: the short image is the vector of raw chi_beta draws,
in [0, 2 beta], times the forward matrix over an offset lowered by
beta times the sum of its rows, which equals the centered preimage's
product; the oracle tests a candidate's pull-back for shortness on the
packed sum of the inverse matrix, without building the pull-back.
"""

import math
import random
from dataclasses import dataclass, replace
from functools import cached_property
from operator import mul
from typing import Callable, NamedTuple

from . import linalg
from .errors import BetaOutOfRange, BetaTooLarge, CtxMismatch, InvariantBreach
from .gring import Isomorphism, RingCtx, RingElem, _image, _wrap_elem, build_ring_iso
from .gring import iso_from_phi_x
from .poly import _trim, random_monic_irreducible
from .zmod import Modulus, draws


class GriParams(NamedTuple):
    p: int
    s: int
    n: int
    beta: int
    k: int


@dataclass(frozen=True)
class ChiBeta:
    """Uniform sampler of ring elements with coefficients in {-beta..beta}."""

    beta: int
    ctx: RingCtx

    def __post_init__(self):
        if self.beta < 1 or 2 * self.beta >= self.ctx.m:
            raise BetaOutOfRange(f"need 1 <= beta < {self.ctx.m}/2, got {self.beta}")

    def sample(self, rng: random.Random) -> RingElem:
        """The draws of n rng.randint(-beta, beta) calls; 2 beta < p^s, so they are centered."""
        b = self.beta
        cs = _trim([x - b for x in draws(rng, self.ctx.n, 2 * b + 1)])
        return _wrap_elem(tuple(cs), self.ctx)


@dataclass(frozen=True)
class GriSecret:
    iso: Isomorphism
    preimages: tuple[RingElem, ...]

    @property
    def src(self) -> RingCtx:
        return self.iso.src


@dataclass(frozen=True)
class GriInstance:
    params: GriParams
    dst: RingCtx
    images: tuple[RingElem, ...]
    secret: GriSecret | None

    def public_only(self) -> "GriInstance":
        return self if self.secret is None else replace(self, secret=None)

    @cached_property
    def _chi_packed(self) -> tuple[tuple[int, ...], int, int]:
        """The forward packing of the secret iso for raw chi_beta draws x in [0, 2 beta]^n.

        ChiBeta checks beta first, and nothing is cached when it raises,
        so an out-of-range beta raises on every use.
        """
        chi = ChiBeta(self.params.beta, self.secret.src)
        return linalg._lowered(self.secret.iso._packed[0], chi.beta)


def instance_from_iso(iso: Isomorphism, beta: int, k: int, rng: random.Random) -> GriInstance:
    """Sample k short preimages under a fixed isomorphism and publish their images."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # a composite src refuses p here, before any draw
    params = GriParams(iso.src.p, iso.src.s, iso.src.n, beta, k)
    chi = ChiBeta(beta, iso.src)
    preimages = tuple(chi.sample(rng) for _ in range(k))
    images = tuple(iso.apply(a) for a in preimages)
    return GriInstance(params, iso.dst, images, GriSecret(iso, preimages))


def gen_instance(p: int, s: int, n: int, beta: int, k: int, rng: random.Random) -> GriInstance:
    """A fresh instance with independently drawn defining polynomials.

    Statistical independence of the two presentations is a property of
    the supplied randomness; callers wiring in their own polynomials
    must not derive one from the other.
    """
    mod = Modulus(p, s)
    f = random_monic_irreducible(mod, n, rng)
    big_f = random_monic_irreducible(mod, n, rng)
    iso = build_ring_iso(RingCtx(f), RingCtx(big_f), rng)
    return instance_from_iso(iso, beta, k, rng)


def challenge_from_instance(
    inst: GriInstance, rng: random.Random
) -> tuple[tuple[RingElem, RingElem], int]:
    """A fresh decisional pair over an existing instance (needs the secret),
    exactly one member being a short image, and the index of that image."""
    if inst.secret is None:
        raise ValueError("challenge generation requires the instance secret")
    iso, packed = inst.secret.iso, inst._chi_packed  # checks beta before any draw
    # the image of ChiBeta.sample's preimage, from the same n draws without the preimage
    image = _image(draws(rng, iso.src.n, 2 * inst.params.beta + 1), packed, iso.dst)
    noise = inst.dst.random_elem(rng)
    bit = draws(rng, 1, 2)[0]  # rng.randrange(2)
    return ((image, noise) if bit == 0 else (noise, image)), bit


Strategy = Callable[[tuple[RingElem, RingElem]], int]


def random_guess_strategy(rng: random.Random) -> Strategy:
    """Baseline: ignore the pair, flip a coin."""
    return lambda pair: rng.randrange(2)


def oracle_strategy(secret: GriSecret, beta: int) -> Strategy:
    """Cheating reference: pull both candidates back and test shortness.

    A uniform element pulls back to a uniform element, which lands in
    the box of sup-norm beta with probability ((2*beta+1)/p^s)^n, so
    at small beta this strategy is essentially always right. Coefficient
    0 of a pull-back is cand . col0 mod p^s, so a candidate of the
    destination ring whose coefficient 0 already exceeds beta is screened
    out: it cannot be short. A screened-out last candidate settles the
    pair at 0 when the first is in the destination ring (either the
    first is short or neither is), with no pull-back. Otherwise a
    screened-out first candidate is skipped and box tests decide, so a
    game pair takes none when the uniform element comes last and one
    when it comes first, unless its coefficient 0 is within beta. A box
    test (`linalg._in_box`) reads the slots of the candidate's packed
    product with the inverse matrix and builds no pull-back element; as
    a full pull-back would, it refuses a candidate of another ring.
    """
    iso, m = secret.iso, secret.iso.src.m
    col0 = [row[0] % m for row in iso.bwd]
    inverse = iso._packed[1]

    def out(cand: RingElem) -> bool:
        return cand.ctx is iso.dst and 0 <= beta < sum(map(mul, cand.coeffs, col0)) % m < m - beta

    def short(cand: RingElem) -> bool:
        if cand.ctx is not iso.dst and cand.ctx != iso.dst:
            raise CtxMismatch("element is not in the destination ring")
        return linalg._in_box(cand.coeffs, inverse, m, beta)

    def guess(pair: tuple[RingElem, RingElem]) -> int:
        first, last = pair
        if first.ctx is iso.dst and out(last) or not out(first) and short(first):
            return 0
        return int(short(last))

    return guess


@dataclass(frozen=True)
class ExperimentReport:
    trials: int
    successes: int
    rate: float
    wilson_low: float
    wilson_high: float


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = 1.96) for a binomial proportion."""
    z = 1.96
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"need trials >= 1 and 0 <= successes <= trials, got {successes}/{trials}")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_distinguisher_experiment(
    params: GriParams,
    distinguisher: Strategy,
    trials: int,
    rng: random.Random,
    instance: GriInstance | None = None,
) -> ExperimentReport:
    """Empirical success rate of a distinguisher over fresh pairs.

    One instance is generated (or supplied), and the distinguisher is
    called with a fresh pair per trial, each drawn from a derived
    independent stream: one generator, reseeded from rng per trial,
    which leaves it in the state of a new Random with that seed. The
    hidden bits are independent fair coins, so the report is
    order-insensitive and a blind guesser converges to 1/2.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    inst = instance if instance is not None else gen_instance(*params, rng)
    if inst.params != GriParams(*params):
        raise ValueError("supplied instance does not match the parameters")
    successes = 0
    stream = random.Random(0)
    for _ in range(trials):
        stream.seed(rng.getrandbits(64))
        pair, bit = challenge_from_instance(inst, stream)
        if distinguisher(pair) == bit:
            successes += 1
    low, high = wilson_interval(successes, trials)
    return ExperimentReport(trials, successes, successes / trials, low, high)


def reduce_to_ffi(inst: GriInstance) -> GriInstance:
    """Reduce an instance modulo p, collapsing it to the s = 1 problem.

    Only meaning-preserving when beta < p/2: then every preimage
    coefficient already lies in (-p/2, p/2] and survives the reduction
    unchanged, so the reduced instance has the same secrets.
    """
    p = inst.params.p
    if 2 * inst.params.beta >= p:
        raise BetaTooLarge(f"beta={inst.params.beta} does not satisfy beta < {p}/2")
    dst_bar = inst.dst.residue_field
    images = tuple(a.reduce_mod_p() for a in inst.images)
    secret_bar = None
    if inst.secret is not None:
        src_bar = inst.secret.src.residue_field
        iso_bar = iso_from_phi_x(src_bar, dst_bar, inst.secret.iso.phi_x.reduce_mod_p())
        preimages = tuple(a.reduce_mod_p() for a in inst.secret.preimages)
        for before, after in zip(inst.secret.preimages, preimages):
            if before.coeffs != after.coeffs:
                raise InvariantBreach("preimage changed under reduction mod p")
        secret_bar = GriSecret(iso_bar, preimages)
    params = inst.params._replace(s=1)
    return GriInstance(params, dst_bar, images, secret_bar)
