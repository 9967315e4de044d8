"""Composite rings Z/mZ[x]/(f) glued from Galois ring components with
pairwise distinct characteristics.

The modulus m is the product of the coprime component prime powers,
f is the centered coefficient tuple that reduces to the component
defining polynomial modulo each of them, and elements are centered
coefficient tuples that split into component elements by
coefficient-wise reduction. Arithmetic is the raw kernel of `poly`.
Isomorphisms are transported componentwise: split, map, recombine.
"""

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import DegreeMismatch, ModuliNotCoprime, ParamMismatch, ValidationError
from .gring import Isomorphism, RingCtx, RingElem, build_ring_iso
from .poly import Poly, _canon, _mul_rem, _raw_add, _raw_sub, _rem_matrix, _uniform
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
class CompositeCtx:
    """Z/mZ[x]/(f) presented by its Galois ring components; f is centered mod m."""

    components: tuple[RingCtx, ...]
    f: tuple[int, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("at least one component required")
        primes = [c.p for c in self.components]
        if len(set(primes)) != len(primes):
            raise ModuliNotCoprime("component characteristics share a prime")
        if len({c.n for c in self.components}) != 1:
            raise DegreeMismatch("components differ in degree")
        if len(self.f) != self.n + 1 or self.f[-1] != 1 or _canon(self.f, self.m) != self.f:
            raise ValidationError("combined polynomial has the wrong shape")
        for c in self.components:
            if _canon(self.f, c.m) != c.f.coeffs:
                raise ValidationError("combined polynomial does not match a component")

    @classmethod
    def from_components(cls, components: Sequence[RingCtx]) -> "CompositeCtx":
        components = tuple(components)
        f = crt_combine_polys([c.f for c in components])
        return cls(components, f)

    @cached_property
    def m(self) -> int:
        return math.prod(c.m for c in self.components)

    @property
    def n(self) -> int:
        return self.components[0].n

    @cached_property
    def _rem_matrix(self) -> tuple[int, int, tuple[int, ...]]:
        return _rem_matrix(self.f, self.m)

    def elem(self, coeffs) -> "CompositeElem":
        return CompositeElem(_canon(coeffs, self.m, self.f), self)

    def zero(self) -> "CompositeElem":
        return CompositeElem((), self)

    def one(self) -> "CompositeElem":
        return self.elem([1])

    def random_elem(self, rng: random.Random) -> "CompositeElem":
        return CompositeElem(_uniform(rng, self.n, self.m), self)


@dataclass(frozen=True)
class CompositeElem:
    coeffs: tuple[int, ...]
    ctx: CompositeCtx

    def _same(self, other: "CompositeElem"):
        if self.ctx != other.ctx:
            raise ParamMismatch("elements of different composite rings")

    def __add__(self, other):
        self._same(other)
        return CompositeElem(tuple(_raw_add(self.coeffs, other.coeffs, self.ctx.m)), self.ctx)

    def __sub__(self, other):
        self._same(other)
        return CompositeElem(tuple(_raw_sub(self.coeffs, other.coeffs, self.ctx.m)), self.ctx)

    def __mul__(self, other):
        self._same(other)
        ctx = self.ctx
        return CompositeElem(tuple(_mul_rem(self.coeffs, other.coeffs, ctx._rem_matrix, ctx.m)), ctx)

    def split(self) -> tuple[RingElem, ...]:
        """Component elements by coefficient-wise reduction."""
        return tuple(c.elem(self.coeffs) for c in self.ctx.components)


def crt_combine_elems(parts: Sequence[RingElem], ctx: CompositeCtx) -> CompositeElem:
    """Inverse of splitting: recombine one element per component."""
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
class CompositeIsomorphism:
    """Componentwise transport of ring isomorphisms to the combined ring."""

    src: CompositeCtx
    dst: CompositeCtx
    parts: tuple[Isomorphism, ...]  # aligned with src.components
    dst_index: tuple[int, ...]  # position of each part's target in dst.components

    @property
    def phi_x(self) -> CompositeElem:
        """Combined image of x; reduces to each component image."""
        vectors = [None] * len(self.parts)
        for i, part in enumerate(self.parts):
            vectors[self.dst_index[i]] = part.phi_x.coeffs
        moduli = [c.m for c in self.dst.components]
        return self.dst.elem(_combine_vectors(vectors, moduli, self.dst.n))

    def _rearranged(self, results):
        ordered = [None] * len(results)
        for i, res in enumerate(results):
            ordered[self.dst_index[i]] = res
        return ordered

    def apply(self, a: CompositeElem) -> CompositeElem:
        if a.ctx != self.src:
            raise ParamMismatch("element is not in the source ring")
        images = [part.apply(x) for part, x in zip(self.parts, a.split())]
        return crt_combine_elems(self._rearranged(images), self.dst)

    def apply_inverse(self, a: CompositeElem) -> CompositeElem:
        if a.ctx != self.dst:
            raise ParamMismatch("element is not in the destination ring")
        split = a.split()
        preimages = [
            part.apply_inverse(split[self.dst_index[i]]) for i, part in enumerate(self.parts)
        ]
        return crt_combine_elems(preimages, self.src)


def build_composite_iso(
    src: CompositeCtx, dst: CompositeCtx, rng: random.Random
) -> CompositeIsomorphism:
    """Pair components by (p, s), build each ring isomorphism, recombine."""
    if sorted((c.p, c.s, c.n) for c in src.components) != sorted(
        (c.p, c.s, c.n) for c in dst.components
    ):
        raise ParamMismatch("component parameter multisets differ")
    parts = []
    dst_index = []
    for comp in src.components:
        idx = next(
            i
            for i, d in enumerate(dst.components)
            if (d.p, d.s) == (comp.p, comp.s)
        )
        parts.append(build_ring_iso(comp, dst.components[idx], rng))
        dst_index.append(idx)
    return CompositeIsomorphism(src, dst, tuple(parts), tuple(dst_index))
