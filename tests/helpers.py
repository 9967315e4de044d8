"""Independent oracles: brute-force and exact reference computations
deliberately kept apart from the library code paths they check."""

import math
import random
from fractions import Fraction
from itertools import product, zip_longest

from griforge import (
    ExperimentReport,
    Poly,
    eval_poly,
    gen_instance,
    hnf_row_basis,
)
from griforge.errors import NoRoot
from griforge.ffield import _tdivmod, _tgcd, _tmul, _trem, _trev_inv
from griforge.gri import ChiBeta, wilson_interval
from griforge.poly import _mul_rem, _power, _raw_add, _raw_divmod, _raw_sub, _rem_matrix, _trim
from griforge.zmod import centered


def schoolbook_rem(a, f, m):
    """Long-division remainder of a by the monic f, centered mod m."""
    r = [c % m for c in a]
    while r and r[-1] % m == 0:
        r.pop()
    while len(r) >= len(f):
        lead = r[-1]
        shift = len(r) - len(f)
        for j in range(len(f)):
            r[shift + j] = (r[shift + j] - lead * f[j]) % m
        while r and r[-1] % m == 0:
            r.pop()
    return tuple(centered(c, m) for c in r)


def schoolbook_mul(a, b, m):
    """Convolution product, centered mod m."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while out and out[-1] % m == 0:
        out.pop()
    return tuple(centered(c, m) for c in out)


def f2_coeffs(a):
    """The coefficients of a bit-packed polynomial over F_2 (bit i that of x^i), from x^0 up."""
    return [int(c) for c in reversed(bin(a)[2:])] if a else []


def f2_bits(cs):
    """The bit-packed polynomial over F_2 with the residues mod 2 of cs as its coefficients."""
    return sum(c % 2 << i for i, c in enumerate(cs))


def exhaustive_irreducible(f: Poly) -> bool:
    """Trial division by every monic polynomial of degree <= n/2 over F_p."""
    fbar = f.reduce_mod_p()
    p = fbar.modulus.p
    n = fbar.degree
    coeffs = [c % p for c in fbar.coeffs]
    for d in range(1, n // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            if not schoolbook_rem(coeffs, g, p):
                return False
    return True


def frobenius_irreducible(f: Poly) -> bool:
    """The splitting-field criterion on schoolbook products and remainders.

    fbar of degree n is irreducible over F_p iff x^(p^n) = x mod fbar and
    gcd(x^(p^(n/q)) - x, fbar) = 1 for every prime q dividing n.
    """
    fbar = f.reduce_mod_p()
    p, n = fbar.modulus.p, fbar.degree
    if n == 1:
        return True
    fb = fbar.coeffs

    def power(a, e):  # right to left, reducing after every product
        result = (1,)
        while e:
            if e & 1:
                result = schoolbook_rem(schoolbook_mul(result, a, p), fb, p)
            a = schoolbook_rem(schoolbook_mul(a, a, p), fb, p)
            e >>= 1
        return result

    checks = {n // q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))}
    x = (0, 1)
    h = x
    for j in range(1, n + 1):
        h = power(h, p)
        if j in checks:
            a, b = fb, schoolbook_rem([c - (i == 1) for i, c in enumerate(h + (0, 0))], fb, p)
            while b:  # gcd, dividing by b made monic
                inv = pow(b[-1], -1, p)
                a, b = b, schoolbook_rem(a, [c * inv for c in b], p)
            if len(a) != 1:
                return False
    return h == x


def list_kernel_ben_or(fb):
    """poly._ben_or at p = 2 on the list kernel, as written before the bit-packed path:
    Frobenius powers by _mul_rem products with fbar's reduction matrix (x^(p^d) as the
    bare monomial while 2^d < n) and a remainder-only Euclid on _raw_divmod."""
    n = len(fb) - 1
    q, red, h = 1, None, [0, 1]
    for _ in range(n // 2):
        q *= 2
        if q < n:
            h = [0] * q + [1]
        else:
            red = red or _rem_matrix(fb, 2)
            h = _power(h, 2, lambda a, b: _mul_rem(a, b, red, 2))
        a, b = fb, _raw_sub(h, [0, 1], 2)
        while len(b) > 1:
            a, b = b, _raw_divmod(a, b, 2)[1]
        if not b:
            return False
    return True


def randrange_elem(ctx, rng):
    """A uniform element of a ring or composite ring as first written: n randrange(m)
    draws through the canonical form."""
    return ctx.elem([rng.randrange(ctx.m) for _ in range(ctx.n)])


def randint_short_elem(chi, rng):
    """A chi_beta sample as first written: n randint(-beta, beta) draws through the
    canonical form."""
    return chi.ctx.elem([rng.randint(-chi.beta, chi.beta) for _ in range(chi.ctx.n)])


def randrange_monic_irreducible(modulus, n, rng):
    """random_monic_irreducible as first written, on randrange draws, with the
    Frobenius criterion as its test."""
    while True:
        f = Poly([rng.randrange(modulus.m) for _ in range(n)] + [1], modulus)
        if frobenius_irreducible(f):
            return f


def full_pullback_guess(secret, beta, pair):
    """The oracle distinguisher as first written: pull each candidate back in full and
    return the index of the first whose coefficients all lie in [-beta, beta], else 0."""
    for idx, cand in enumerate(pair):
        if all(abs(c) <= beta for c in secret.iso.apply_inverse(cand).coeffs):
            return idx
    return 0


def reference_experiment(params, distinguisher, trials, rng, instance=None):
    """run_distinguisher_experiment as first written: a new Random per trial, and each
    challenge drawn by randint, randrange and randrange(2) through the canonical form."""
    inst = instance if instance is not None else gen_instance(*params, rng)
    chi = ChiBeta(inst.params.beta, inst.secret.src)
    successes = 0
    for _ in range(trials):
        stream = random.Random(rng.getrandbits(64))
        image = inst.secret.iso.apply(randint_short_elem(chi, stream))
        noise = randrange_elem(inst.dst, stream)
        bit = stream.randrange(2)
        pair = (image, noise) if bit == 0 else (noise, image)
        if distinguisher(pair) == bit:
            successes += 1
    low, high = wilson_interval(successes, trials)
    return ExperimentReport(trials, successes, successes / trials, low, high)


def list_kernel_f2_root(g: Poly, field, rng):
    """find_root's p = 2 splitting on the list kernel, as written before the packed one:
    the absolute trace of delta*t by _tmul and _trem, then _tgcd and _tdivmod. Returns
    the root's coefficients; g must already pass find_root's checks."""
    n, fb, red = field.n, list(field.f.coeffs), field._rem_matrix
    h = [[c] if c else [] for c in g.coeffs]
    hinv = _trev_inv(h, 2, red)
    attempts = 0
    while len(h) > 2:
        attempts += 1
        if attempts > 64 * (n + 1):
            raise NoRoot("equal-degree splitting did not converge")
        u = _trim([[], list(field.random_elem(rng).coeffs)])
        w = list(u)
        for _ in range(n - 1):
            u = _trem(_tmul(u, u, 2, red), h, hinv, 2, red)
            w = _trim([_raw_add(a, b, 2) for a, b in zip_longest(w, u, fillvalue=[])])
        d = _tgcd(h, w, 2, fb, red)
        if 1 < len(d) < len(h):
            h = d if 2 * len(d) <= len(h) + 1 else _tdivmod(h, d, 2, fb, red)[0]
            hinv = _trev_inv(h, 2, red)
    return field.elem([-c for c in h[0]]).rep.coeffs


def field_roots(g: Poly, field):
    """All roots of g in the field, by exhaustive evaluation."""
    return [a for a in field.elements() if eval_poly(g, a).is_zero]


def ring_horner(g: Poly, a):
    """Evaluate g at a ring element with plain element arithmetic."""
    acc = a.ctx.zero()
    for c in reversed(g.coeffs):
        acc = acc * a + a.ctx.elem([c])
    return acc


def hensel_all_steps(g: Poly, alpha0):
    """beta_0 .. beta_{s-1}: every one of the s - 1 Newton steps, with no early stop."""
    ctx = alpha0.ctx
    gprime = Poly([i * c for i, c in enumerate(g.coeffs)][1:], g.modulus)
    betas = [alpha0]
    for _ in range(ctx.s - 1):
        beta = betas[-1]
        betas.append(beta - ring_horner(gprime, beta).inv() * ring_horner(g, beta))
    return betas


def mat_mul(a, b, m):
    """Matrix product, entries centered mod m."""
    cols = len(b[0])
    return [
        [centered(sum(ra[t] * b[t][j] for t in range(len(ra))), m) for j in range(cols)]
        for ra in a
    ]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def solve_exact(a, b):
    """Solve a @ x = b over Q; a square. Returns Fractions or None if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [row[n] for row in aug]


def det_fraction(mat) -> Fraction:
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                c = a[r][col] * inv
                a[r] = [x - c * y for x, y in zip(a[r], a[col])]
    return det


def transform_between(original, reduced):
    """Integer U with U @ original = reduced, or None.

    original must be square and nonsingular; solves column systems
    exactly over Q and checks integrality.
    """
    at = transpose(original)
    rows = []
    for v in reduced:
        x = solve_exact(at, v)
        if x is None or any(f.denominator != 1 for f in x):
            return None
        rows.append([int(f) for f in x])
    return rows


def gram_det(rows) -> Fraction:
    gram = [[sum(x * y for x, y in zip(r1, r2)) for r2 in rows] for r1 in rows]
    return det_fraction(gram)


def exact_gso(rows):
    """Exact Gram-Schmidt: (mu, norms_sq) over Fraction."""
    r = len(rows)
    star = []
    nsq = []
    mu = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        v = [Fraction(x) for x in rows[i]]
        for j in range(i):
            m = sum((Fraction(x) * y for x, y in zip(rows[i], star[j])), Fraction(0)) / nsq[j]
            mu[i][j] = m
            v = [vi - m * sj for vi, sj in zip(v, star[j])]
        star.append(v)
        nsq.append(sum((x * x for x in v), Fraction(0)))
    return mu, nsq


def is_lll_reduced(rows, delta: Fraction) -> bool:
    """Size-reduction and Lovasz condition, checked exactly."""
    mu, nsq = exact_gso(rows)
    half = Fraction(1, 2)
    for i in range(len(rows)):
        for j in range(i):
            if abs(mu[i][j]) > half:
                return False
    for i in range(1, len(rows)):
        if nsq[i] < (delta - mu[i][i - 1] ** 2) * nsq[i - 1]:
            return False
    return True


class _FractionGSO:
    """Lazy exact Gram-Schmidt data over a mutable integer basis.

    Rows below `valid` are stale; `ensure` recomputes them in order.
    Row i only depends on rows <= i, so invalidating from the lowest
    modified index keeps everything consistent.
    """

    def __init__(self, basis):
        self.basis = basis
        self.star = []
        self.norm_sq = []
        self.mu = []
        self.valid = 0

    def ensure(self, upto):
        while self.valid <= upto:
            i = self.valid
            v = [Fraction(x) for x in self.basis[i]]
            mu_row = []
            for j in range(i):
                nj = self.norm_sq[j]
                dot = sum((x * y for x, y in zip(self.basis[i], self.star[j])), Fraction(0))
                m = dot / nj if nj else Fraction(0)
                mu_row.append(m)
                if m:
                    v = [vi - m * sj for vi, sj in zip(v, self.star[j])]
            nsq = sum((x * x for x in v), Fraction(0))
            if i < len(self.star):
                self.star[i], self.norm_sq[i], self.mu[i] = v, nsq, mu_row
            else:
                self.star.append(v)
                self.norm_sq.append(nsq)
                self.mu.append(mu_row)
            self.valid = i + 1

    def touch(self, i):
        self.valid = min(self.valid, i)


def _fraction_dependent(rows):
    gso = _FractionGSO([list(r) for r in rows])
    gso.ensure(len(rows) - 1)
    return any(x == 0 for x in gso.norm_sq)


def fraction_lll(rows, delta):
    """Textbook LLL over Fraction Gram-Schmidt data.

    The reference for griforge.lll_reduce: same row handling (zero rows
    dropped, echelon fallback for wide or dependent inputs), full size
    reduction of row k before the Lovasz test, rounding floor(mu + 1/2).
    """
    delta = Fraction(delta)
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    if len(work) > len(work[0]) or _fraction_dependent(work):
        work, _ = hnf_row_basis(work)
    basis = [list(r) for r in work]
    gso = _FractionGSO(basis)
    half = Fraction(1, 2)
    k = 1
    while k < len(basis):
        gso.ensure(k)
        for j in range(k - 1, -1, -1):
            m = gso.mu[k][j]
            if m > half or m < -half:
                q = math.floor(m + half)
                basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
                gso.touch(k)
                gso.ensure(k)
        if gso.norm_sq[k] >= (delta - gso.mu[k][k - 1] ** 2) * gso.norm_sq[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            gso.touch(k - 1)
            k = max(k - 1, 1)
    return basis


def enumerate_shortest(basis):
    """Exact shortest nonzero lattice vector by depth-first enumeration.

    Uses the supplied basis only for the search tree; every candidate
    norm comparison is exact, so the result is the true minimum of the
    lattice the basis generates.
    """
    r = len(basis)
    mu, nsq = exact_gso(basis)
    if not all(n > 0 for n in nsq):
        raise ValueError("basis must be linearly independent")
    best = sum(x * x for x in basis[0])
    best_vec = tuple(basis[0])
    coeff = [0] * r

    def rec(level, partial):
        nonlocal best, best_vec
        if level < 0:
            if any(coeff):
                vec = tuple(
                    sum(coeff[i] * basis[i][t] for i in range(r))
                    for t in range(len(basis[0]))
                )
                val = sum(x * x for x in vec)
                if 0 < val < best:
                    best = val
                    best_vec = vec
            return
        center = -sum(mu[i][level] * coeff[i] for i in range(level + 1, r))
        budget = Fraction(best) - partial
        if budget < 0:
            return
        width = math.sqrt(float(budget / nsq[level])) if budget > 0 else 0.0
        cf = float(center)
        for x in range(math.floor(cf - width) - 1, math.ceil(cf + width) + 2):
            d = Fraction(x) - center
            add = d * d * nsq[level]
            if add <= budget:
                coeff[level] = x
                rec(level - 1, partial + add)
        coeff[level] = 0

    rec(r - 1, Fraction(0))
    return best_vec, int(best)
