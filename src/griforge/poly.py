"""Dense univariate polynomials over Z/p^sZ.

Coefficients are stored ascending by degree in centered form with
trailing zeros trimmed; the zero polynomial has an empty coefficient
tuple and degree -1. `_canon` builds that form, reducing modulo a monic
f on request, for `Poly`, the ring elements of `gring` and `crt` and the
CLI loaders; `_uniform` draws a uniform element in it directly. `Poly`,
a frozen dataclass whose constructor canonicalizes, plays the
defining-polynomial role: f and fbar of a ring presentation, their
derivative, the irreducibility test and sampling. Element arithmetic is
the private kernel on flat integer lists, shared by the rings, the
residue field, root finding and the composite rings. Bulk products are
Kronecker-packed: `_pack`/`_unpack` put residues in bit slots wide
enough that one big-integer multiply replaces the coefficient loops.
Every product modulo a fixed monic f is `_mul_rem`, a packed product
reduced by one packed vector-matrix product with the reduction matrix of
f (`_rem_matrix`, built once by its owner), and every power is `_power`
over such a product. `_raw_divmod` is the one long division over Z/mZ,
on residues in [0, m): `_canon`, `_fp_inv` and Ben-Or's gcd at odd p
run on it. Ben-Or's test at p = 2 runs on bit-packed integers instead,
one bit per coefficient, squaring by `_f2_square` and reducing by the
shift-and-XOR loop `_f2_rem`.
"""

import random
from dataclasses import dataclass, field
from itertools import zip_longest
from math import isqrt
from operator import index
from typing import Sequence

from .errors import ModulusMismatch
from .zmod import Modulus, centered, draws


def _trim(cs: list) -> list:
    """Drop trailing zeros (or empty coefficient lists) in place."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _uniform(rng, n, m) -> tuple[int, ...]:
    """n uniform residues mod m, centered and trimmed: _canon of n rng.randrange(m) draws."""
    half = m // 2
    return tuple(_trim([c - m if c > half else c for c in draws(rng, n, m)]))


def _raw_add(a, b, m):
    return _trim([centered(x + y, m) for x, y in zip_longest(a, b, fillvalue=0)])


def _raw_sub(a, b, m):
    return _trim([centered(x - y, m) for x, y in zip_longest(a, b, fillvalue=0)])


def _width(k, m):
    """Slot width w in bits for a sum of k products of residues mod m: k(m-1)^2 < 2^w."""
    return (k * (m - 1) ** 2).bit_length()


def _pack(cs, w, m):
    """One integer holding the residue in [0, m) of cs[j] in bits [j*w, (j+1)*w)."""
    x = 0
    for c in reversed(cs):
        x = (x << w) | (c % m)
    return x


def _unpack(x, w, count, m):
    """The first count w-bit slots of x, from bit 0 up, each centered mod m."""
    mask, half = (1 << w) - 1, m // 2
    out = []
    for _ in range(count):
        r = (x & mask) % m
        out.append(r - m if r > half else r)
        x >>= w
    return out


def _raw_mul(a, b, m):
    """Product in Z/mZ[x] by Kronecker substitution: one big-integer multiply."""
    if not a or not b:
        return []
    w = _width(min(len(a), len(b)), m)
    pa = _pack(a, w, m)
    pb = pa if b is a else _pack(b, w, m)
    return _trim(_unpack(pa * pb, w, len(a) + len(b) - 1, m))


def _rem_matrix(f, m):
    """The reduction matrix of the monic f of degree n, Kronecker-packed for _rem_slots.

    Returns (n, w, rows), where rows[k] packs x^k mod f for k < 2n - 1
    (x^k itself for k < n). Slot j of sum((a_k mod m) * rows[k]) adds
    a_j and at most n - 1 products of residues, so the bound
    (n - 1)(m - 1)^2 + m - 1 < 2^w keeps every slot apart.
    """
    n = len(f) - 1
    w = ((n - 1) * (m - 1) ** 2 + m - 1).bit_length()
    rows = [1 << (k * w) for k in range(n)]
    r = [0] * (n - 1) + [1]
    for _ in range(n - 1):
        c = r[-1]  # x * r = c * x^n + lower, and x^n = -(f - x^n)
        r = [(x - c * y) % m for x, y in zip([0] + r[:-1], f)]
        rows.append(_pack(r, w, m))
    return n, w, tuple(rows)


def _rem_slots(x, w, red, m):
    """Remainder modulo f of the polynomial in the first 2n - 1 w-bit slots of x.

    red is _rem_matrix(f, m); the remainder is the packed sum of
    (slot k mod m) * rows[k], read back with one _unpack.
    """
    n, wr, rows = red
    mask = (1 << w) - 1
    acc = 0
    for r in rows:
        acc += ((x & mask) % m) * r
        x >>= w
    return _trim(_unpack(acc, wr, n, m))


def _mul_rem(a, b, red, m):
    """Product of a and b (at most n coefficients each) modulo the f of red = _rem_matrix(f, m)."""
    if not a or not b:
        return []
    w = _width(min(len(a), len(b)), m)
    pa = _pack(a, w, m)
    return _rem_slots(pa * (pa if b is a else _pack(b, w, m)), w, red, m)


def _power(a, e, mul):
    """a^e for e >= 1 by left-to-right square and multiply, where mul is the product."""
    result = a
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


def _canon(coeffs, m, f=None) -> tuple[int, ...]:
    """Integer coeffs centered mod m and trimmed, then reduced modulo the monic f if given."""
    cs = _trim([centered(index(c), m) for c in coeffs])
    if f is not None and len(cs) >= len(f):
        cs = [centered(c, m) for c in _raw_divmod(cs, f, m)[1]]
    return tuple(cs)


def _raw_divmod(a, b, m):
    """Quotient and remainder of a by b, whose leading coefficient must be a unit.

    Both come back as trimmed residues in [0, m). The leading coefficient
    is inverted once, and the running remainder is reduced only where an
    entry is read off: a quotient coefficient, or the remainder at the end.
    """
    k, inv = len(b) - 1, pow(b[-1], -1, m)
    q, r = [0] * (len(a) - k), list(a)  # no quotient when len(a) <= k
    for i in reversed(range(k, len(r))):
        c = q[i - k] = r[i] * inv % m
        if c:  # r[i] itself is never read again
            r[i - k : i] = [x - c * y for x, y in zip(r[i - k : i], b)]
    return _trim(q), _trim([c % m for c in r[:k]])


def _fp_inv(a, p, fb):
    """Inverse of a nonzero element of the field F_p[x]/(fb), by extended Euclid against fb."""
    r0, r1, u0, u1 = fb, a, [], [1]
    while r1:
        q, r = _raw_divmod(r0, r1, p)
        r0, r1, u0, u1 = r1, r, u1, _raw_sub(u0, _raw_mul(q, u1, p), p)
    return _raw_mul(u0, [pow(r0[0], -1, p)], p)


@dataclass(frozen=True, slots=True)
class Poly:
    """A defining polynomial over Z/p^sZ; the constructor makes its coefficients canonical.

    `_irreducible` keeps the verdict of `is_irreducible_mod_p` once it is
    computed (None before), outside equality, hash and repr; the
    reduction mod p inherits it, since it has the same reduction.
    """

    coeffs: tuple[int, ...]
    modulus: Modulus
    _irreducible: bool | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _canon(self.coeffs, self.modulus.m))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:], self.modulus)

    def reduce_mod_p(self) -> "Poly":
        """Coefficient-wise reduction into F_p; result lives modulo (p, 1)."""
        fbar = Poly(self.coeffs, self.modulus.residue)
        object.__setattr__(fbar, "_irreducible", self._irreducible)
        return fbar

    def __repr__(self):
        return f"{_pretty(self.coeffs)} (mod {self.modulus!r})"


def _pretty(coeffs: Sequence[int], var: str = "x") -> str:
    if not coeffs:
        return "0"
    terms = []
    for i in reversed(range(len(coeffs))):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            body = f"{mag}{var}" if i == 1 else f"{mag}{var}^{i}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


def eval_poly(g: Poly, a):
    """g(a) at an element a of a Galois ring (a `gring.RingElem`), by Paterson–Stockmeyer (1973).

    With k = isqrt(deg g) + 1, g is a polynomial in a^k whose
    coefficients are blocks of k of g's. A block is a sum of scalar
    multiples of the baby powers a^0 .. a^(k-1), each packed once, and
    Horner in a^k joins the blocks: about 2 sqrt(deg g) ring products in
    place of Horner's deg g, all on the raw kernel.
    """
    ctx = a.ctx
    if g.modulus != ctx.modulus:
        raise ModulusMismatch("polynomial and element use different moduli")
    cs, m, red = g.coeffs, ctx.m, ctx._rem_matrix
    k = isqrt(max(g.degree, 0)) + 1
    powers = [[1], a.coeffs]
    while len(powers) <= k:
        powers.append(_mul_rem(powers[-1], powers[1], red, m))
    w = _width(k + 1, m)  # k products in a block plus one residue of the running sum
    baby = [_pack(x, w, m) for x in powers[:k]]
    acc = []
    for j in reversed(range(0, len(cs), k)):
        x = _pack(_mul_rem(acc, powers[k], red, m), w, m)
        x += sum((c % m) * b for c, b in zip(cs[j : j + k], baby))
        acc = _unpack(x, w, ctx.n, m)
    return ctx.elem(acc)


def is_irreducible_mod_p(f: Poly) -> bool:
    """Whether the reduction of f modulo p is irreducible over F_p.

    Ben-Or's test (1981): x^(p^d) - x is the product of the monic
    irreducibles of degree dividing d, and a reducible fbar of degree n
    has an irreducible factor of degree d <= n/2. So fbar is irreducible
    iff gcd(x^(p^d) - x, fbar) = 1 for every d <= n/2. The verdict is
    kept on f, so a second call on f, or on its `reduce_mod_p`, looks it up.
    """
    if not f.is_monic or f.degree < 1:
        raise ValueError("irreducibility test requires a monic polynomial of degree >= 1")
    if f._irreducible is None:
        p = f.modulus.p
        object.__setattr__(f, "_irreducible", _ben_or([c % p for c in f.coeffs], p))
    return f._irreducible


def _ben_or(fb, p) -> bool:
    """Ben-Or's loop on the residues fb of a monic fbar of degree n over F_p.

    It stops at the first d that finds a factor. At p = 2 it runs on
    bit-packed integers, bit i the coefficient of x^i: the Frobenius step
    is `_f2_square`, and the reduction modulo fbar and every Euclid
    remainder are `_f2_rem`. While 2^d < n, x^(2^d) is its own remainder
    and that loop does nothing. Odd p runs on the list kernel: while
    p^d < n, x^(p^d) is the bare monomial, so the reduction matrix of fbar
    is built at the first step with p^d >= n, and not at all when an
    earlier gcd finds a factor; each gcd step is a `_raw_divmod` remainder.
    """
    n = len(fb) - 1
    if p == 2:
        f, h = int("".join(map(str, reversed(fb))), 2), 2  # h = x^(2^d) mod fbar after step d
        for _ in range(n // 2):
            h = _f2_rem(_f2_square(h), f)
            a, b = f, h ^ 2  # h - x
            while b > 1:  # Euclid until the remainder is a constant
                a, b = b, _f2_rem(a, b)
            if not b:  # the last nonzero remainder a is not constant: a common factor
                return False
        return True
    q, red, h = 1, None, [0, 1]  # h = x^(p^d) mod fbar after step d
    for _ in range(n // 2):
        q *= p  # p^d: h is the bare monomial x^q while q < n
        if q < n:
            h = [0] * q + [1]
        else:
            red = red or _rem_matrix(fb, p)
            h = _power(h, p, lambda a, b: _mul_rem(a, b, red, p))
        a, b = fb, _raw_sub(h, [0, 1], p)  # h - x
        while len(b) > 1:  # Euclid by remainders only
            a, b = b, _raw_divmod(a, b, p)[1]
        if not b:  # the last nonzero remainder a is not constant: a common factor
            return False
    return True


def _f2_square(a):
    """a^2 in F_2[x], bit-packed: squaring is linear over F_2, so it spreads the bits of a apart."""
    return int("0".join(bin(a)[2:]), 2)


def _f2_rem(a, b):
    """a mod b in F_2[x], both bit-packed (bit i the coefficient of x^i), b nonzero."""
    k = b.bit_length()
    while (d := a.bit_length() - k) >= 0:
        a ^= b << d
    return a


def random_monic_irreducible(modulus: Modulus, n: int, rng: random.Random) -> Poly:
    """Monic degree-n polynomial over Z/p^sZ, irreducible modulo p.

    Non-leading coefficients are uniform over the centered residue
    set; rejection runs until the mod-p reduction is irreducible
    (about n trials on average).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    m = modulus.m
    while True:
        f = Poly(draws(rng, n, m) + [1], modulus)
        if is_irreducible_mod_p(f):
            return f
