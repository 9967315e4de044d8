"""Composite rings Z/mZ[x]/(f) glued from Galois ring components with
pairwise distinct characteristics.

The modulus m is a product of coprime prime powers, f reduces to the
component defining polynomial modulo each of them, and elements split
into component elements by coefficient-wise reduction. Isomorphisms
are transported componentwise: split, map, recombine.
"""

import random
from dataclasses import dataclass
from typing import Sequence

from .errors import DegreeMismatch, ModuliNotCoprime, ParamMismatch, ValidationError
from .gring import Isomorphism, RingCtx, RingElem, build_ring_iso
from .poly import Poly, _raw_add, _raw_mul, _raw_rem_monic, _raw_sub, _trim
from .zmod import centered, xgcd


def crt_ints(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Centered residue mod the product that matches every (residue, modulus)."""
    x, m = residues[0] % moduli[0], moduli[0]
    for r2, m2 in zip(residues[1:], moduli[1:]):
        g, u, _ = xgcd(m, m2)
        if g != 1:
            raise ModuliNotCoprime(f"moduli {m} and {m2} share a factor")
        x = x + m * ((u * (r2 - x)) % m2)
        m *= m2
    return centered(x, m)


@dataclass(frozen=True)
class CompositePoly:
    """A polynomial with centered coefficients modulo a composite m."""

    coeffs: tuple[int, ...]
    m: int

    def __post_init__(self):
        cs = _trim([centered(int(c), self.m) for c in self.coeffs])
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def reduce_mod(self, md: int) -> tuple[int, ...]:
        return tuple(_trim([centered(c, md) for c in self.coeffs]))


def crt_combine_polys(polys: Sequence[Poly]) -> CompositePoly:
    """Combine monic same-degree component polynomials coefficient-wise."""
    polys = list(polys)
    if not polys:
        raise ValueError("at least one polynomial required")
    if len({f.degree for f in polys}) != 1:
        raise DegreeMismatch("component polynomials differ in degree")
    if not all(f.is_monic for f in polys):
        raise ValueError("component polynomials must be monic")
    moduli = [f.modulus.m for f in polys]
    width = polys[0].degree + 1
    coeffs = [crt_ints([f.coeff(i) for f in polys], moduli) for i in range(width)]
    m = 1
    for md in moduli:
        m *= md
    return CompositePoly(tuple(coeffs), m)


def _combine_vectors(vectors: Sequence[Sequence[int]], moduli: Sequence[int], width: int):
    return tuple(
        crt_ints([vec[i] if i < len(vec) else 0 for vec in vectors], moduli)
        for i in range(width)
    )


@dataclass(frozen=True)
class CompositeCtx:
    """Z/mZ[x]/(f) presented by its Galois ring components."""

    components: tuple[RingCtx, ...]
    f: CompositePoly

    def __post_init__(self):
        if not self.components:
            raise ValueError("at least one component required")
        primes = [c.p for c in self.components]
        if len(set(primes)) != len(primes):
            raise ModuliNotCoprime("component characteristics share a prime")
        if len({c.n for c in self.components}) != 1:
            raise DegreeMismatch("components differ in degree")
        m = 1
        for c in self.components:
            m *= c.m
        if self.f.m != m or not self.f.is_monic or self.f.degree != self.components[0].n:
            raise ValidationError("combined polynomial has the wrong shape")
        for c in self.components:
            if self.f.reduce_mod(c.m) != c.f.coeffs:
                raise ValidationError("combined polynomial does not match a component")

    @classmethod
    def from_components(cls, components: Sequence[RingCtx]) -> "CompositeCtx":
        components = tuple(components)
        f = crt_combine_polys([c.f for c in components])
        return cls(components, f)

    @property
    def m(self) -> int:
        return self.f.m

    @property
    def n(self) -> int:
        return self.f.degree

    def elem(self, coeffs) -> "CompositeElem":
        cs = _trim([centered(int(c), self.m) for c in coeffs])
        if len(cs) > self.n:
            cs = _raw_rem_monic(cs, list(self.f.coeffs), self.m)
        return CompositeElem(tuple(cs), self)

    def zero(self) -> "CompositeElem":
        return CompositeElem((), self)

    def one(self) -> "CompositeElem":
        return self.elem([1])

    def random_elem(self, rng: random.Random) -> "CompositeElem":
        return self.elem([rng.randrange(self.m) for _ in range(self.n)])


@dataclass(frozen=True)
class CompositeElem:
    coeffs: tuple[int, ...]
    ctx: CompositeCtx

    def _same(self, other: "CompositeElem"):
        if self.ctx != other.ctx:
            raise ParamMismatch("elements of different composite rings")

    def __add__(self, other):
        self._same(other)
        return self.ctx.elem(_raw_add(self.coeffs, other.coeffs, self.ctx.m))

    def __sub__(self, other):
        self._same(other)
        return self.ctx.elem(_raw_sub(self.coeffs, other.coeffs, self.ctx.m))

    def __mul__(self, other):
        self._same(other)
        return self.ctx.elem(_raw_mul(self.coeffs, other.coeffs, self.ctx.m))

    def split(self) -> tuple[RingElem, ...]:
        """Component elements by coefficient-wise reduction."""
        return tuple(c.elem(self.coeffs) for c in self.ctx.components)


def crt_split_elem(a: CompositeElem) -> tuple[RingElem, ...]:
    return a.split()


def crt_combine_elems(parts: Sequence[RingElem], ctx: CompositeCtx) -> CompositeElem:
    """Inverse of splitting: recombine one element per component."""
    parts = list(parts)
    if len(parts) != len(ctx.components):
        raise ParamMismatch("one element per component required")
    for part, comp in zip(parts, ctx.components):
        if part.ctx != comp:
            raise ParamMismatch("component element in the wrong ring")
    moduli = [c.m for c in ctx.components]
    vectors = [part.rep.coeffs for part in parts]
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
            vectors[self.dst_index[i]] = part.phi_x.rep.coeffs
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
