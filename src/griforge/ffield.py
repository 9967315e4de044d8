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
ascending trimmed list of field elements. Products in t are
Kronecker-packed and reduced modulo fbar by the field's packed
reduction matrix; powers are reduced modulo the factor h by a Newton
inverse of its reversal, so each reduction is two more products. A
division multiplies by one inverse of the divisor's leading coefficient,
the gcd is made monic once, and the cofactor of a factor is divided out
only when it is the factor kept.
"""

import random
from itertools import zip_longest

from .errors import CtxMismatch, InvariantBreach, NoRoot
from .poly import Poly, _fp_inv, _pack, _power, _raw_add, _raw_sub, _rem_slots, _trim
from .poly import _mul_rem, _width, eval_poly, is_irreducible_mod_p


def _tmul(u, v, p, red):
    """Product in F_{p^n}[t]: x-slots in t-slots of 2n - 1, one multiply, one packed reduction each.

    red is the field's reduction matrix (`RingCtx._rem_matrix`).
    """
    n = red[0]
    d = 2 * n - 1
    w = _width(min(len(u), len(v)) * n, p)
    tw = d * w
    x = _pack([_pack(a, w, p) for a in u], tw, 1 << tw)  # inner packs are < 2^(dw)
    x *= x if v is u else _pack([_pack(b, w, p) for b in v], tw, 1 << tw)
    mask = (1 << tw) - 1
    out = []
    for _ in range(len(u) + len(v) - 1):
        out.append(_rem_slots(x & mask, w, red, p))
        x >>= tw
    return _trim(out)


def _tdivmod(u, v, p, fb, red):
    """Quotient and remainder of u by v, by one inverse of v's leading coefficient."""
    linv = _fp_inv(v[-1], p, fb)
    q = [[] for _ in range(len(u) - len(v) + 1)]
    r = list(u)
    for i in reversed(range(len(q))):
        c = q[i] = _mul_rem(r[i + len(v) - 1], linv, red, p)
        if c:
            for j, cv in enumerate(_tmul([c], v[:-1], p, red)):
                r[i + j] = _raw_sub(r[i + j], cv, p)
    return _trim(q), _trim(r[: len(v) - 1])


def _tgcd(u, v, p, fb, red):
    """The monic gcd: Euclid by remainders, then the last nonzero one scaled once."""
    while v:
        u, v = v, _tdivmod(u, v, p, fb, red)[1]
    return _tmul([_fp_inv(u[-1], p, fb)], u, p, red) if u else u


def _trev_inv(h, p, red):
    """Power-series inverse of rev(h) modulo t^(deg h - 1) for a monic h, by Newton iteration.

    g -> g - g(rev(h) g - 1) doubles the number of correct terms
    (von zur Gathen and Gerhard, Modern Computer Algebra, 9.1).
    """
    rh = h[::-1]
    need = len(h) - 2
    g = [[1]]
    k = 1
    while k < need:
        k = min(2 * k, need)
        e = _tmul(rh[:k], g, p, red)[1:k]  # rev(h) g - 1 mod t^k, over t; 0 below the old k
        corr = _tmul(g, [[]] + e, p, red)[:k]
        g = _trim([_raw_sub(a, b, p) for a, b in zip_longest(g, corr, fillvalue=[])])
    return g


def _trem(u, h, hinv, p, red):
    """Remainder of u (len u < 2 deg h) modulo the monic h, by two packed products.

    hinv is _trev_inv(h): the reversed quotient is rev(u) * hinv,
    truncated, and the remainder is u - q h below degree deg h.
    """
    dh = len(h) - 1
    k = len(u) - dh  # length of the quotient
    if k <= 0:
        return u
    rq = _tmul(u[: dh - 1 : -1], hinv[:k], p, red)[:k]
    q = (rq + [[]] * (k - len(rq)))[::-1]
    qh = _tmul(q, h[:dh], p, red)
    return _trim([_raw_sub(a, b, p) for a, b in zip_longest(u[:dh], qh[:dh], fillvalue=[])])


def find_root(g: Poly, field, rng: random.Random):
    """A root in `field` of a monic irreducible g with deg g = field.n.

    `field` is an s = 1 `RingCtx`. Such a g splits into n distinct
    linear factors over the field; the returned root is the one
    isolated first under the supplied randomness, so distinct seeds
    may select distinct conjugates.
    """
    if g.modulus != field.modulus or field.s != 1:
        raise CtxMismatch("root finding needs g and an s = 1 field over the same prime")
    if not g.is_monic or g.degree != field.n:
        raise NoRoot("degree of g must equal the extension degree")
    if not is_irreducible_mod_p(g):
        raise NoRoot("g is reducible modulo p")
    p, n = field.p, field.n
    fb, red = list(field.f.coeffs), field._rem_matrix
    q = p**n
    h = [[c] if c else [] for c in g.coeffs]
    hinv = _trev_inv(h, p, red)
    attempts = 0
    while len(h) > 2:
        attempts += 1
        if attempts > 64 * (n + 1):
            raise NoRoot("equal-degree splitting did not converge")
        delta = list(field.random_elem(rng).coeffs)
        if p == 2:
            # Absolute trace of delta*t: sum of (delta*t)^(2^i), i < n.
            u = _trim([[], delta])
            w = list(u)
            for _ in range(n - 1):
                u = _trem(_tmul(u, u, p, red), h, hinv, p, red)
                w = _trim([_raw_add(a, b, p) for a, b in zip_longest(w, u, fillvalue=[])])
        else:
            w = _power([delta, [1]], (q - 1) // 2,
                       lambda a, b: _trem(_tmul(a, b, p, red), h, hinv, p, red))
            w = _trim([_raw_sub(a, b, p) for a, b in zip_longest(w, [[1]], fillvalue=[])])
        d = _tgcd(h, w, p, fb, red)
        if 1 < len(d) < len(h):  # keep the shorter factor; h / d has len(h) - len(d) + 1 terms
            h = d if 2 * len(d) <= len(h) + 1 else _tdivmod(h, d, p, fb, red)[0]
            hinv = _trev_inv(h, p, red)
    root = field.elem([-c for c in h[0]])
    if not eval_poly(g, root).is_zero:
        raise InvariantBreach("splitting produced a non-root")
    return root
