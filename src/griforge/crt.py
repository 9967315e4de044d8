"""Composite rings Z/mZ[x]/(f) glued from Galois ring components with
pairwise distinct characteristics.

The modulus m is the product of the coprime component prime powers, and
f is the centered coefficient tuple that reduces to the component
defining polynomial modulo each of them. A `CompositeCtx` holds only its
components and derives m and f from them. A composite ring is a
`gring._Quotient` like a Galois ring, so its elements are `RingElem`s
(`RingElem.split` reduces one to its components) with the same
arithmetic. A composite isomorphism is an `Isomorphism` whose phi_x and
matrices are the CRT combination of the components' own: an image
reduces mod each component modulus to that component's image.
"""

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import DegreeMismatch, ModuliNotCoprime, ParamMismatch
from .gring import Isomorphism, RingCtx, RingElem, _Quotient, build_ring_iso
from .poly import Poly
from .zmod import centered


def crt_ints(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Centered residue mod the product that matches every (residue, modulus)."""
    if not moduli:
        raise ValueError("at least one modulus required")
    x, m = 0, 1
    for r2, m2 in zip(residues, moduli, strict=True):
        try:
            u = pow(m, -1, m2)
        except ValueError:
            raise ModuliNotCoprime(f"moduli {m} and {m2} share a factor") from None
        x = x + m * ((u * (r2 - x)) % m2)
        m *= m2
    return centered(x, m)


def crt_combine_polys(polys: Sequence[Poly]) -> tuple[int, ...]:
    """Combine monic same-degree component polynomials coefficient-wise.

    The result is centered modulo the product of the component moduli.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("at least one polynomial required")
    if len({f.degree for f in polys}) != 1:
        raise DegreeMismatch("component polynomials differ in degree")
    if not all(f.is_monic for f in polys):
        raise ValueError("component polynomials must be monic")
    moduli = [f.modulus.m for f in polys]
    return _combine_vectors([f.coeffs for f in polys], moduli, polys[0].degree + 1)


def _combine_vectors(vectors: Sequence[Sequence[int]], moduli: Sequence[int], width: int):
    return tuple(
        crt_ints([vec[i] if i < len(vec) else 0 for vec in vectors], moduli)
        for i in range(width)
    )


@dataclass(frozen=True)
class CompositeCtx(_Quotient):
    """Z/mZ[x]/(f) presented by its Galois ring components, which determine m and f."""

    components: tuple[RingCtx, ...]

    def __post_init__(self):
        self.f  # crt_combine_polys refuses no components, mixed degrees and shared primes

    @classmethod
    def from_components(cls, components: Sequence[RingCtx]) -> "CompositeCtx":
        return cls(tuple(components))

    @cached_property
    def f(self) -> tuple[int, ...]:
        """The coefficients of f, centered mod m: the CRT combination of the component f."""
        return crt_combine_polys([c.f for c in self.components])

    @cached_property
    def m(self) -> int:
        return math.prod(c.m for c in self.components)

    @property
    def n(self) -> int:
        return self.components[0].n

    _f_coeffs = property(lambda self: self.f)
    _label = property(lambda self: " x ".join(c._label for c in self.components))
    modulus = fbar = residue_field = property(lambda self: self._refuse(galois=True))


def crt_combine_elems(parts: Sequence[RingElem], ctx: CompositeCtx) -> RingElem:
    """Inverse of `RingElem.split`: recombine one element per component."""
    parts = list(parts)
    if len(parts) != len(ctx.components):
        raise ParamMismatch("one element per component required")
    for part, comp in zip(parts, ctx.components):
        if part.ctx != comp:
            raise ParamMismatch("component element in the wrong ring")
    moduli = [c.m for c in ctx.components]
    vectors = [part.coeffs for part in parts]
    return ctx.elem(_combine_vectors(vectors, moduli, ctx.n))


@dataclass(frozen=True)
class CompositeIsomorphism(Isomorphism):
    """An isomorphism of composite rings, with the component isomorphisms it combines."""

    parts: tuple[Isomorphism, ...]  # aligned with src.components
    dst_index: tuple[int, ...]  # position of each part's target in dst.components


def build_composite_iso(
    src: CompositeCtx, dst: CompositeCtx, rng: random.Random
) -> CompositeIsomorphism:
    """Pair components by (p, s), build each ring isomorphism, and CRT-combine
    their phi_x, fwd and bwd entrywise: part i keeps src component i's modulus."""
    if sorted((c.p, c.s, c.n) for c in src.components) != sorted(
        (c.p, c.s, c.n) for c in dst.components
    ):
        raise ParamMismatch("component parameter multisets differ")
    dst_index = tuple(
        next(i for i, d in enumerate(dst.components) if (d.p, d.s) == (comp.p, comp.s))
        for comp in src.components
    )
    parts = tuple(
        build_ring_iso(comp, dst.components[i], rng) for comp, i in zip(src.components, dst_index)
    )
    moduli, n = [c.m for c in src.components], src.n
    fwd = tuple(_combine_vectors(rows, moduli, n) for rows in zip(*(p.fwd for p in parts)))
    bwd = tuple(_combine_vectors(rows, moduli, n) for rows in zip(*(p.bwd for p in parts)))
    phi_x = dst.elem(_combine_vectors([p.phi_x.coeffs for p in parts], moduli, n))
    return CompositeIsomorphism(src, dst, phi_x, fwd, bwd, parts, dst_index)
