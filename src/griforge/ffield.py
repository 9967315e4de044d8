"""Roots of irreducible polynomials in the residue field F_{p^n}.

The residue field is the s = 1 ring GR(p, n), a `RingCtx` over a prime
modulus. An isomorphism between two degree-n extensions is pinned down
by a root of one defining polynomial inside the other field. Root
finding uses equal-degree splitting: the input polynomial factors into
n distinct linear factors over the target field, and random shifts of
t^((q-1)/2) - 1 (or of the absolute trace polynomial when p = 2)
separate them.

For odd p the splitting works on flat integer lists with the raw kernel
of `poly`: a field element is a trimmed list of centered coefficients of
degree < n (zero is the empty list), and a polynomial in t is an
ascending trimmed list of field elements. Products in t are
Kronecker-packed and reduced modulo fbar by the field's packed
reduction matrix; powers are reduced modulo the factor h by a Newton
inverse of its reversal, so each reduction is two more products. A
division multiplies by one inverse of the divisor's leading coefficient,
the gcd is made monic once, and the cofactor of a factor is divided out
only when it is the factor kept.

For p = 2 (`_split_f2`) a whole polynomial in t is one integer with a
bit per coefficient of y in each slot, and stays packed between steps:
reduction mod 2 is a mask, and the reductions modulo fbar and modulo h
are Barrett products over all coefficients at once.
"""

import random
from itertools import zip_longest

from .errors import CtxMismatch, InvariantBreach, NoRoot
from .poly import Poly, _fp_inv, _pack, _power, _raw_divmod, _raw_sub, _rem_slots, _trim
from .poly import _mul_rem, _unpack, _width, eval_poly, is_irreducible_mod_p


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


def _split_odd(g, field, rng):
    """The root's coefficients for odd p: h splits by gcds with (t + delta)^((p^n - 1)/2) - 1."""
    p, n = field.p, field.n
    fb, red = list(field.f.coeffs), field._rem_matrix
    h = [[c] if c else [] for c in g.coeffs]
    hinv = _trev_inv(h, p, red)
    attempts = 0
    while len(h) > 2:
        attempts += 1
        if attempts > 64 * (n + 1):
            raise NoRoot("equal-degree splitting did not converge")
        delta = list(field.random_elem(rng).coeffs)
        w = _power([delta, [1]], (p**n - 1) // 2,
                   lambda a, b: _trem(_tmul(a, b, p, red), h, hinv, p, red))
        w = _trim([_raw_sub(a, b, p) for a, b in zip_longest(w, [[1]], fillvalue=[])])
        d = _tgcd(h, w, p, fb, red)
        if 1 < len(d) < len(h):  # keep the shorter factor; h / d has len(h) - len(d) + 1 terms
            h = d if 2 * len(d) <= len(h) + 1 else _tdivmod(h, d, p, fb, red)[0]
            hinv = _trev_inv(h, p, red)
    return [-c for c in h[0]]


def _split_f2(g, field, rng):
    """The root's coefficients for p = 2: trace splitting on packed t-polynomials.

    A field element packs its coefficient of y^j in bit j*w of an integer,
    and a t-polynomial packs its coefficient of t^i in t-slot i, T =
    (2n - 1) w bits wide, room for an unreduced product in y. Factors
    always have coefficients reduced to bits, so slot (i, j) of a raw
    product counts bit products: at most n pairs of y-slots sum to j, and
    at most deg h <= n pairs of t-slots sum to i (a square of a residue
    mod h, or a Barrett product mod h; a product by a scalar has one).
    So a slot holds at most n deg h <= n^2, and w = bits(n^2) keeps every
    slot apart; no product has more than 2n - 1 t-slots. Only bit 0 of a
    slot is ever read: reduction mod 2 is an AND with the mask of those
    bits, and a sum is an XOR.

    Both reductions are Barrett products on every coefficient at once.
    Modulo fbar, with mu = floor(y^(2n-2) / fbar), the quotient of a
    y-polynomial a of degree <= 2n - 2 is floor(floor(a / y^n) mu /
    y^(n-2)). Modulo the current factor h of degree D, with mh =
    floor(t^(2D-2) / h) (the reversal of rev(h)^-1 mod t^(D-1)), likewise
    in t, and only the part of q h below t^D is added back. The gcd
    cancels each leading term by cross products, b_lead a - a_lead b t^k,
    which needs no inverse; a factor kept is made monic once, by a^(2^n - 2).
    """
    n = field.n
    w = (n * n).bit_length()
    T = (2 * n - 1) * w
    every_t = ((1 << (2 * n - 1) * T) - 1) // ((1 << T) - 1)

    def parity(k):  # bit 0 of y-slots 0 .. k-1, in every t-slot
        return ((1 << k * w) - 1) // ((1 << w) - 1) * every_t

    lo, hi, top = parity(n), parity(n - 1), n * w
    fbar = _pack(field.f.coeffs, w, 2)
    mu = _pack(_raw_divmod([0] * (2 * n - 2) + [1], field.f.coeffs, 2)[0], w, 2)

    def red(x):  # x modulo fbar in every t-slot, from bit 0 of each y-slot
        q = (((x >> top) & hi) * mu >> (n - 2) * w) & hi
        return (x ^ q * fbar) & lo

    def deg(u):
        return (u.bit_length() - 1) // T

    def quo(u, v):  # quotient of u by the monic v
        q, dv = 0, deg(v)
        while (du := deg(u)) >= dv:
            c = u >> du * T
            q |= c << (du - dv) * T
            u ^= red(c * v) << (du - dv) * T
        return q

    def barrett(h):
        return quo(1 << (2 * deg(h) - 2) * T, h)

    h = _pack(g.coeffs, T, 2)
    dh, mh = n, barrett(h)
    attempts = 0
    while dh > 1:
        attempts += 1
        if attempts > 64 * (n + 1):
            raise NoRoot("equal-degree splitting did not converge")
        # Absolute trace of delta*t: sum of (delta*t)^(2^i), i < n.
        u = acc = _pack(field.random_elem(rng).coeffs, w, 2) << T
        below = (1 << dh * T) - 1
        hlo = h & below
        for _ in range(n - 1):
            u = red(u * u)
            if u > below:
                q = red((u >> dh * T) * mh >> (dh - 2) * T)
                u = red((q * hlo ^ u) & below)
            acc ^= u
        # The gcd of h and the trace, up to a unit.
        a, b = h, acc
        while b:
            db = deg(b)
            cb = b >> db * T
            while (da := deg(a)) >= db:
                a = red(a * cb ^ (b * (a >> da * T)) << (da - db) * T)
            a, b = b, a
        dd = deg(a)
        if 0 < dd < dh:  # keep the shorter factor
            d = red(a * _power(a >> dd * T, 2**n - 2, lambda x, y: red(x * y)))
            h = d if 2 * dd <= dh else quo(h, d)
            dh, mh = deg(h), barrett(h)
    return _unpack(h, w, n, 2)


def find_root(g: Poly, field, rng: random.Random):
    """A root in `field` of a monic irreducible g with deg g = field.n.

    `field` is an s = 1 `RingCtx`. Such a g splits into n distinct
    linear factors over the field; the returned root is the one
    isolated first under the supplied randomness, so distinct seeds
    may select distinct conjugates. Each splitting attempt draws one
    field element; after 64(n + 1) attempts the search gives up with
    `NoRoot`. p = 2 splits by the absolute trace on packed integers,
    odd p by powers on coefficient lists; both give the same root for
    the same draws as the list kernel alone.
    """
    if g.modulus != field.modulus or field.s != 1:
        raise CtxMismatch("root finding needs g and an s = 1 field over the same prime")
    if not g.is_monic or g.degree != field.n:
        raise NoRoot("degree of g must equal the extension degree")
    if not is_irreducible_mod_p(g):
        raise NoRoot("g is reducible modulo p")
    root = field.elem((_split_f2 if field.p == 2 else _split_odd)(g, field, rng))
    if not eval_poly(g, root).is_zero:
        raise InvariantBreach("splitting produced a non-root")
    return root
