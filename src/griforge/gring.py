"""Galois ring GR(p^s, n) arithmetic, Newton lifting of simple roots,
and ring isomorphism construction.

A ring presentation is (Z/p^sZ)[x]/(f) with f monic of degree n and
irreducible modulo p. The residue field F_p[x]/(fbar) is the s = 1
ring over fbar, so one type serves both. The reduction map onto it has
kernel (p); an element is a unit exactly when its reduction is nonzero.
An element is its coefficient tuple, centered mod p^s and trimmed, and
its arithmetic calls the raw kernel of `poly` directly; the `Poly` f
only defines the ring. `_Quotient` holds what any Z/mZ[x]/(f) needs, so
the composite rings of `crt` share `RingElem` and `Isomorphism`.
"""

import operator
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from . import linalg
from .errors import (
    CtxMismatch,
    InvalidIsomorphism,
    InvariantBreach,
    NotARootModP,
    NotASimpleRoot,
    NotAUnit,
    NotIrreducible,
    ParamMismatch,
)
from .ffield import find_root
from .poly import Poly, _canon, _fp_inv, _mul_rem, _power, _pretty, _raw_add, _raw_sub
from .poly import _rem_matrix, _trim, _uniform, eval_poly, is_irreducible_mod_p
from .zmod import Modulus


class _Quotient:
    """Z/mZ[x]/(f), f monic of degree n; a subclass supplies m, n, `_f_coeffs`, `_label` and
    `modulus`, and answers the attributes of the other kind of ring with `_refuse`'s error."""

    p = property(lambda self: self.modulus.p)
    s = property(lambda self: self.modulus.s)

    def _refuse(self, galois: bool):
        kind = "a Galois" if galois else "a composite"
        raise CtxMismatch(f"needs an element of {kind} ring, not of {self._label}")

    @cached_property
    def _rem_matrix(self) -> tuple[int, int, tuple[int, ...]]:
        return _rem_matrix(self._f_coeffs, self.m)

    def elem(self, coeffs) -> "RingElem":
        """The class of the polynomial with these coefficients, in canonical form."""
        return _wrap_elem(_canon(coeffs, self.m, self._f_coeffs), self)

    def zero(self) -> "RingElem":
        return _wrap_elem((), self)

    def one(self) -> "RingElem":
        return _wrap_elem((1,), self)

    def random_elem(self, rng: random.Random) -> "RingElem":
        return _wrap_elem(_uniform(rng, self.n, self.m), self)


@dataclass(frozen=True)
class RingCtx(_Quotient):
    """A presentation (Z/p^sZ)[x]/(f) of GR(p^s, n); for s = 1 the field F_{p^n}."""

    f: Poly

    def __post_init__(self):
        if not self.f.is_monic or self.f.degree < 1:
            raise ValueError("defining polynomial must be monic of degree >= 1")
        self.residue_field  # the s = 1 ring tests irreducibility mod p, once

    @cached_property
    def fbar(self) -> Poly:
        return self.f.reduce_mod_p()

    @cached_property
    def residue_field(self) -> "RingCtx":
        """GR(p, n) over fbar; the ctx itself when s = 1."""
        if self.s > 1:
            return RingCtx(self.fbar)
        if not is_irreducible_mod_p(self.f):
            raise NotIrreducible(f"{self.f!r} is reducible")
        return self

    _f_coeffs = property(lambda self: self.f.coeffs)
    _label = property(lambda self: f"GR({self.modulus!r}, {self.n})")
    components = property(lambda self: self._refuse(galois=False))

    @property
    def modulus(self) -> Modulus:
        return self.f.modulus

    @cached_property
    def m(self) -> int:
        return self.modulus.m

    @cached_property
    def n(self) -> int:
        return self.f.degree

    def gen_class(self) -> "RingElem":
        """The class of the quotient variable (a constant when n = 1)."""
        return self.elem((0, 1))

    def elements(self):
        """All p^(s*n) elements; intended for small brute-force checks."""
        for coeffs in product(range(self.m), repeat=self.n):
            yield self.elem(coeffs)


@dataclass(frozen=True)
class RingElem:
    """An element of GR(p^s, n) or of a composite ring, held as a coefficient tuple.

    The tuple is its representative of degree < n, ascending, centered
    mod m and trimmed (zero is ()); the constructor puts it in that
    form. `rep`, `reduce_mod_p`, `is_unit`, `inv` and negative powers
    need a `RingCtx`, `split` a composite ring; on the other kind, the
    ring's own attributes raise `CtxMismatch`.
    """

    coeffs: tuple[int, ...]
    ctx: _Quotient

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _canon(self.coeffs, self.ctx.m))
        if len(self.coeffs) > self.ctx.n:
            raise ValueError("representative out of canonical range")

    @property
    def rep(self) -> Poly:
        """The representative as a `Poly` over Z/p^sZ, for callers outside the package."""
        return Poly(self.coeffs, self.ctx.modulus)

    def _same(self, other: "RingElem"):
        if self.ctx != other.ctx:
            raise CtxMismatch("elements of different rings")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff_vector(self) -> tuple[int, ...]:
        return self.coeffs + (0,) * (self.ctx.n - len(self.coeffs))

    def sup_norm(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    def __add__(self, other):
        self._same(other)
        return _wrap_elem(tuple(_raw_add(self.coeffs, other.coeffs, self.ctx.m)), self.ctx)

    def __sub__(self, other):
        self._same(other)
        return _wrap_elem(tuple(_raw_sub(self.coeffs, other.coeffs, self.ctx.m)), self.ctx)

    def __neg__(self):
        return _wrap_elem(tuple(_raw_sub((), self.coeffs, self.ctx.m)), self.ctx)

    def __mul__(self, other):
        self._same(other)
        ctx = self.ctx
        return _wrap_elem(tuple(_mul_rem(self.coeffs, other.coeffs, ctx._rem_matrix, ctx.m)), ctx)

    def split(self) -> tuple["RingElem", ...]:
        """The components of an element of a composite ring, by coefficient-wise reduction."""
        return tuple(c.elem(self.coeffs) for c in self.ctx.components)

    def pow(self, e: int) -> "RingElem":
        if e < 0:
            return self.inv().pow(-e)
        return _power(self, e, operator.mul) if e else self.ctx.one()

    def reduce_mod_p(self) -> "RingElem":
        """Image under the reduction map onto the residue field."""
        return _wrap_elem(_canon(self.coeffs, self.ctx.p), self.ctx.residue_field)

    def is_unit(self) -> bool:
        return not self.reduce_mod_p().is_zero

    def inv(self) -> "RingElem":
        """Inverse of a unit, by Newton iteration on the residue inverse.

        z -> z(2 - az) doubles the p-adic precision of an approximate
        inverse, so ceil(log2 s) steps after the residue-field inverse,
        taken by extended Euclid against fbar, give the exact inverse
        modulo p^s. All of it runs on the raw kernel.
        """
        ctx = self.ctx
        red = _canon(self.coeffs, ctx.p)
        if not red:
            raise NotAUnit("element lies in the maximal ideal (p)")
        rm, m, a = ctx._rem_matrix, ctx.m, self.coeffs
        z = _fp_inv(red, ctx.p, ctx.fbar.coeffs)
        for _ in range((ctx.s - 1).bit_length()):
            z = _mul_rem(z, _raw_sub([2], _mul_rem(a, z, rm, m), m), rm, m)
        if _mul_rem(a, z, rm, m) != [1]:
            raise InvariantBreach("Newton inversion did not converge")
        return _wrap_elem(tuple(z), ctx)

    def __repr__(self):
        return f"{_pretty(self.coeffs)} in {self.ctx._label}"


def _wrap_elem(coeffs: tuple[int, ...], ctx: _Quotient) -> RingElem:
    """A RingElem from coefficients a kernel already made canonical, without canonicalizing again.

    It sets the fields as the frozen dataclass's own __init__ does, minus
    __post_init__, so equality, hash, repr and layout are the public
    constructor's (reading e.__dict__ instead would give every element a
    full dict of its own).
    """
    e = object.__new__(RingElem)
    object.__setattr__(e, "coeffs", coeffs)
    object.__setattr__(e, "ctx", ctx)
    return e


def _in_ideal(a: RingElem, power: int) -> bool:
    """Membership of a in the ideal (p^power); (p^j) = (0) for j >= s."""
    e = a.ctx.p ** min(power, a.ctx.s)
    return all(c % e == 0 for c in a.coeffs)


def hensel_iterates(g: Poly, alpha0: RingElem, ctx: RingCtx) -> list[RingElem]:
    """The lifting sequence beta_0 .. beta_{s-1} for a simple root.

    beta_0 is alpha0 and beta_{i+1} = beta_i - g'(beta_i)^{-1} g(beta_i);
    the returned list always has exactly s entries, and g(beta_i) lies
    in (p^{i+1}) at every step (checked), so the final entry is an
    exact root. The step uses the exact inverse, so the precision
    doubles and g(beta_i) = 0 after ceil(log2 s) steps; from the first
    exact root on, the remaining entries repeat it without evaluating g.
    """
    if alpha0.ctx != ctx:
        raise CtxMismatch("start value does not live in the target ring")
    val = eval_poly(g, alpha0)
    if not val.reduce_mod_p().is_zero:
        raise NotARootModP("g(alpha0) is not divisible by p")
    gprime = g.derivative()
    if not eval_poly(gprime, alpha0).is_unit():
        raise NotASimpleRoot("g'(alpha0) is not a unit")
    beta = alpha0
    betas = [beta]
    for i in range(ctx.s - 1):
        if val.is_zero:
            betas += [beta] * (ctx.s - 1 - i)
            break
        beta = beta - eval_poly(gprime, beta).inv() * val
        val = eval_poly(g, beta)
        if not _in_ideal(val, i + 2):
            raise InvariantBreach(f"g(beta_{i + 1}) is not in (p^{i + 2})")
        betas.append(beta)
    if betas[-1].reduce_mod_p() != alpha0.reduce_mod_p():
        raise InvariantBreach("lifted root changed its residue")
    return betas


def hensel_lift(g: Poly, alpha0: RingElem, ctx: RingCtx) -> RingElem:
    """The unique exact root of g reducing to the same residue as alpha0."""
    return hensel_iterates(g, alpha0, ctx)[-1]


@dataclass(frozen=True)
class Isomorphism:
    """A ring isomorphism, pinned down by the image of the variable x.

    fwd row i is the coefficient vector of phi_x^i in the destination
    presentation, so images are coefficient vectors times fwd; bwd is
    the inverse matrix over Z/p^sZ (over Z/mZ between composite rings).
    """

    src: _Quotient
    dst: _Quotient
    phi_x: RingElem
    fwd: tuple[tuple[int, ...], ...]
    bwd: tuple[tuple[int, ...], ...]

    @cached_property
    def _packed(self) -> tuple[tuple, tuple]:
        return linalg.pack_rows(self.fwd, self.dst.m), linalg.pack_rows(self.bwd, self.src.m)

    def apply(self, a: RingElem) -> RingElem:
        if a.ctx is not self.src and a.ctx != self.src:
            raise CtxMismatch("element is not in the source ring")
        return _image(a.coeffs, self._packed[0], self.dst)

    def apply_inverse(self, a: RingElem) -> RingElem:
        if a.ctx is not self.dst and a.ctx != self.dst:
            raise CtxMismatch("element is not in the destination ring")
        return _image(a.coeffs, self._packed[1], self.src)


def _image(v, packed, ctx: _Quotient) -> RingElem:
    """The element of ctx whose coefficient vector is v times the packed matrix (see vec_mat)."""
    cs = _trim(linalg.vec_mat(v, packed, ctx.m))  # centered, degree < n
    return _wrap_elem(tuple(cs), ctx)


def _check_params(src: RingCtx, dst: RingCtx):
    if (src.p, src.s, src.n) != (dst.p, dst.s, dst.n):
        raise ParamMismatch(
            f"({src.p},{src.s},{src.n}) vs ({dst.p},{dst.s},{dst.n})"
        )


def iso_from_phi_x(src: RingCtx, dst: RingCtx, phi_x: RingElem) -> Isomorphism:
    """Rebuild the full isomorphism from the image of x.

    The matrices are determined by phi_x, so serialized isomorphisms
    only need to store it; a stored value that is not a root of the
    source polynomial is rejected. f(phi_x) is read off the powers
    phi_x^0 .. phi_x^(n-1) that form the matrix, plus phi_x^n.
    """
    _check_params(src, dst)
    if phi_x.ctx != dst:
        raise CtxMismatch("phi_x does not live in the destination ring")
    n, m, red, x = dst.n, dst.m, dst._rem_matrix, phi_x.coeffs
    powers = [[1]]
    for _ in range(n):
        powers.append(_mul_rem(powers[-1], x, red, m))
    rows = [cs + [0] * (n - len(cs)) for cs in powers]  # phi_x^0 .. phi_x^n
    if any(sum(map(operator.mul, src.f.coeffs, col)) % m for col in zip(*rows)):
        raise InvalidIsomorphism("phi_x is not a root of the source polynomial")
    rows.pop()
    bwd = linalg.mat_inv_mod(rows, dst.m, dst.p)
    return Isomorphism(
        src,
        dst,
        phi_x,
        tuple(tuple(r) for r in rows),
        tuple(tuple(r) for r in bwd),
    )


def field_iso_from_root(src: RingCtx, dst: RingCtx, root: RingElem) -> Isomorphism:
    """The residue-field (s = 1) isomorphism sending the src variable to root."""
    if src.s != 1 or dst.s != 1:
        raise ParamMismatch("field isomorphisms need s = 1 on both sides")
    return iso_from_phi_x(src, dst, root)


def ring_iso_from_field_root(src: RingCtx, dst: RingCtx, root_bar: RingElem) -> Isomorphism:
    """Lift a residue-field root choice to the unique ring isomorphism over it."""
    _check_params(src, dst)
    if root_bar.ctx != dst.residue_field:
        raise CtxMismatch("root does not live in the destination residue field")
    alpha = dst.elem(root_bar.coeffs)  # trivial lift, same centered values
    phi_x = hensel_lift(src.f, alpha, dst)
    return iso_from_phi_x(src, dst, phi_x)


def build_ring_iso(src: RingCtx, dst: RingCtx, rng: random.Random) -> Isomorphism:
    """Construct an isomorphism between two GR(p^s, n) presentations.

    Works through the residue fields: find a root of fbar in the
    destination residue field, lift it to an exact root of f, and read
    the matrices off the powers of the lifted image.
    """
    _check_params(src, dst)
    root_bar = find_root(src.fbar, dst.residue_field, rng)
    return ring_iso_from_field_root(src, dst, root_bar)
