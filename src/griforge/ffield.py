"""Roots of irreducible polynomials in the residue field F_{p^n}.

The residue field is the s = 1 ring GR(p, n), a `RingCtx` over a prime
modulus. An isomorphism between two degree-n extensions is pinned down
by a root of one defining polynomial inside the other field. Root
finding uses equal-degree splitting: the input polynomial factors into
n distinct linear factors over the target field, and random shifts of
t^((q-1)/2) - 1 (or of the absolute trace polynomial when p = 2)
separate them.

The splitting works on flat integer lists with the raw kernel of
`poly`: a field element is a trimmed list of centered coefficients of
degree < n (zero is the empty list), and a polynomial in t is an
ascending trimmed list of field elements.
"""

import random
from itertools import zip_longest

from .errors import CtxMismatch, InvariantBreach, NoRoot
from .poly import Poly, _fp_inv, _fp_mul, _pack, _raw_add, _raw_rem_monic, _raw_sub, _trim
from .poly import _unpack, _width, is_irreducible_mod_p


def _tmul(u, v, p, fb):
    """Product in F_{p^n}[t]: x-slots in t-slots of 2n - 1, one multiply, one reduction each."""
    d = 2 * len(fb) - 3
    w = _width(min(len(u), len(v)) * (len(fb) - 1), p)
    x = _pack([_pack(a, w, p) for a in u], d * w, 1 << d * w)  # inner packs are < 2^(dw)
    x *= _pack([_pack(b, w, p) for b in v], d * w, 1 << d * w)
    out = []
    for _ in range(len(u) + len(v) - 1):
        out.append(_raw_rem_monic(_unpack(x, w, d, p), fb, p))
        x >>= d * w
    return _trim(out)


def _tmonic(u, p, fb):
    if u[-1] == [1]:
        return u
    linv = _fp_inv(u[-1], p, fb)
    return [_fp_mul(c, linv, p, fb) for c in u]


def _tdivmod(u, v, p, fb):
    """Quotient and remainder of u by v scaled to be monic."""
    v = _tmonic(v, p, fb)
    q = [[] for _ in range(len(u) - len(v) + 1)]
    r = list(u)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + len(v) - 1]
        if c:
            for j in range(len(v) - 1):
                r[i + j] = _raw_sub(r[i + j], _fp_mul(c, v[j], p, fb), p)
    return _trim(q), _trim(r[: len(v) - 1])


def _tgcd(u, v, p, fb):
    while v:
        u, v = v, _tdivmod(u, v, p, fb)[1]
    return _tmonic(u, p, fb) if u else u


def _tpowmod(u, e, h, p, fb):
    result = [[1]]
    u = _tdivmod(u, h, p, fb)[1]
    while e:
        if e & 1:
            result = _tdivmod(_tmul(result, u, p, fb), h, p, fb)[1]
        u = _tdivmod(_tmul(u, u, p, fb), h, p, fb)[1]
        e >>= 1
    return result


def find_root(g: Poly, field, rng: random.Random):
    """A root in `field` of a monic irreducible g with deg g = field.n.

    `field` is an s = 1 `RingCtx`. Such a g splits into n distinct
    linear factors over the field; the returned root is the one
    isolated first under the supplied randomness, so distinct seeds
    may select distinct conjugates.
    """
    if field.s != 1 or g.modulus != field.modulus:
        raise CtxMismatch("root finding needs g and an s = 1 field over the same prime")
    if not g.is_monic or g.degree != field.n:
        raise NoRoot("degree of g must equal the extension degree")
    if not is_irreducible_mod_p(g):
        raise NoRoot("g is reducible modulo p")
    p, n = field.p, field.n
    fb = list(field.f.coeffs)
    q = p**n
    h = [[c] if c else [] for c in g.coeffs]
    attempts = 0
    while len(h) > 2:
        attempts += 1
        if attempts > 64 * (n + 1):
            raise NoRoot("equal-degree splitting did not converge")
        delta = list(field.random_elem(rng).rep.coeffs)
        if p == 2:
            # Absolute trace of delta*t: sum of (delta*t)^(2^i), i < n.
            u = _trim([[], delta])
            w = list(u)
            for _ in range(n - 1):
                u = _tdivmod(_tmul(u, u, p, fb), h, p, fb)[1]
                w = _trim([_raw_add(a, b, p) for a, b in zip_longest(w, u, fillvalue=[])])
        else:
            w = _tpowmod([delta, [1]], (q - 1) // 2, h, p, fb)
            w = _trim([_raw_sub(a, b, p) for a, b in zip_longest(w, [[1]], fillvalue=[])])
        d = _tgcd(h, w, p, fb)
        if 1 < len(d) < len(h):
            other = _tdivmod(h, d, p, fb)[0]
            h = d if len(d) <= len(other) else other
    root = field.elem([-c for c in h[0]])
    acc = field.zero()
    for c in reversed(g.coeffs):
        acc = acc * root + field.elem([c])
    if not acc.is_zero:
        raise InvariantBreach("splitting produced a non-root")
    return root
