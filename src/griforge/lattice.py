"""Lattice attack on public GRI images.

The public lattice lives in Z^k: its generators are the n rows of
coefficient-slices of the images (row i holds the i-th coefficient of
every image) together with p^s times the standard basis. For every
coordinate j the vector of j-th preimage coefficients is a lattice
point, and it is unusually short whenever beta is small, so lattice
reduction surfaces it.

All lattice data is integer-exact; LLL keeps Gram-Schmidt data as
integer Gram determinants and scaled coefficients, so the size and
Lovasz tests are checked without rounding.
"""

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import index

from .errors import BadDelta, CtxMismatch, InvariantBreach
from .gri import GriInstance
from .linalg import _row_reduce
from .zmod import Modulus, centered

DEFAULT_DELTA = Fraction(99, 100)
DEFAULT_GH_FACTOR = 0.8


def _validate_matrix(rows) -> list[list[int]]:
    """The rows as int lists; TypeError on a non-integer entry, as `Poly` raises."""
    rows = [list(map(index, r)) for r in rows]
    if not rows:
        raise ValueError("empty matrix")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ValueError("matrix must be rectangular and non-empty")
    return rows


def build_attack_lattice(images, modulus: Modulus) -> list[list[int]]:
    """The (n+k) x k generator matrix: coefficient slices over p^s * I_k."""
    images = list(images)
    if not images:
        raise ValueError("at least one image required")
    ctx = images[0].ctx
    for img in images:
        if img.ctx != ctx:
            raise CtxMismatch("images live in different rings")
    if ctx.modulus != modulus:
        raise CtxMismatch("images do not live modulo the given prime power")
    n, k, m = ctx.n, len(images), modulus.m
    vecs = [img.coeff_vector() for img in images]
    rows = [[vecs[j][i] for j in range(k)] for i in range(n)]
    rows += [[m if j == i else 0 for j in range(k)] for i in range(k)]
    return rows


def hnf_row_basis(rows) -> tuple[list[list[int]], list[list[int]]]:
    """Echelon basis of the integer row lattice, plus its transform.

    Returns (basis, t) with basis = t @ rows, produced by unimodular row
    operations only (swaps, negations, integer row additions), so the
    basis generates exactly the same lattice. Pivots are positive and
    sit on strictly increasing columns; entries above a pivot are
    reduced into [0, pivot). t rides along as nr identity columns
    appended to the rows.
    """
    a = _validate_matrix(rows)
    nr, nc = len(a), len(a[0])
    a = [row + [int(i == j) for j in range(nr)] for i, row in enumerate(a)]
    r = 0
    for col in range(nc):
        if r == nr:
            break
        while True:
            nz = [i for i in range(r, nr) if a[i][col]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][col]))
            a[r], a[i0] = a[i0], a[r]
            if a[r][col] < 0:
                a[r] = [-x for x in a[r]]
            done = True
            for i in range(r + 1, nr):
                if a[i][col]:
                    q = a[i][col] // a[r][col]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    if a[i][col]:
                        done = False
            if done:
                break
        if a[r][col]:
            for i in range(r):
                q = a[i][col] // a[r][col]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    if any(any(a[i][:nc]) for i in range(r, nr)):
        raise InvariantBreach("echelon form left a nonzero row below the pivots")
    return [row[:nc] for row in a[:r]], [row[nc:] for row in a[:r]]


def solve_in_basis(v, basis) -> list[int] | None:
    """Integer coordinates of v in an echelon row basis, or None; ValueError if v is
    not as long as the rows are wide."""
    res = list(map(index, v))
    if basis and len(res) != len(basis[0]):
        raise ValueError(f"vector of length {len(res)} against rows of width {len(basis[0])}")
    coords = []
    for row in basis:
        j = next(idx for idx, x in enumerate(row) if x)
        if res[j] % row[j]:
            return None
        q = res[j] // row[j]
        if q:
            res = [x - q * y for x, y in zip(res, row)]
        coords.append(q)
    return coords if not any(res) else None


def in_lattice(v, rows) -> bool:
    """Exact membership of v in the lattice generated by the rows."""
    rows = _validate_matrix(rows)
    if len(v) != len(rows[0]):  # a zero lattice has no basis row to check v against
        raise ValueError(f"vector of length {len(v)} against rows of width {len(rows[0])}")
    basis, _ = hnf_row_basis(rows)
    return solve_in_basis(v, basis) is not None


def _integral_gso(basis):
    """Integral Gram-Schmidt data (d, lam), or None for dependent rows.

    d[i] is the Gram determinant of the first i rows (d[0] = 1) and
    lam[i][j] = d[j+1] * mu_ij for j < i; both are integers, and the
    divisions below are exact (Cohen, Alg. 2.6.7, step 2).
    """
    d = [1]
    lam = []
    for i, bi in enumerate(basis):
        row = []
        lam.append(row)
        for j in range(i + 1):
            lj = lam[j]
            u = sum(x * y for x, y in zip(bi, basis[j]))
            for m in range(j):
                u = (d[m + 1] * u - row[m] * lj[m]) // d[m]
            row.append(u)
        if not u:
            return None
        d.append(row.pop())
    return d, lam


def lll_reduce(rows, delta=DEFAULT_DELTA) -> list[list[int]]:
    """Exact LLL reduction of the lattice generated by the rows.

    Zero rows are dropped and linearly dependent inputs are first
    condensed to a basis by unimodular row operations; the output is a
    size-reduced basis of the same lattice satisfying the Lovasz
    condition with parameter delta. This is the fraction-free integral
    LLL of de Weger (Cohen, Alg. 2.6.7): it keeps the Gram determinants
    d_i and lam_ij = d_{j+1} * mu_ij, so every test is on integers.
    """
    try:
        frac = Fraction(delta)
    except (TypeError, ValueError, OverflowError):  # inf, nan, a non-number
        frac = None
    if frac is None or not Fraction(1, 4) < frac < 1:
        raise BadDelta(f"delta must lie in (1/4, 1), got {delta}")
    num, den = frac.numerator, frac.denominator
    basis = [r for r in _validate_matrix(rows) if any(r)]
    if not basis:
        return []
    gso = _integral_gso(basis) if len(basis) <= len(basis[0]) else None
    if gso is None:
        basis, _ = hnf_row_basis(basis)
        gso = _integral_gso(basis)
    d, lam = gso
    r = len(basis)
    k = 1
    while k < r:
        bk, lk = basis[k], lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            if 2 * abs(lk[j]) > dj:
                q = (2 * lk[j] + dj) // (2 * dj)
                bk = [x - q * y for x, y in zip(bk, basis[j])]
                lk[j] -= q * dj
                for i, x in enumerate(lam[j]):
                    lk[i] -= q * x
        basis[k] = bk
        lkk = lk[k - 1]
        if den * d[k + 1] * d[k - 1] >= num * d[k] ** 2 - den * lkk * lkk:
            k += 1
            continue
        basis[k], basis[k - 1] = basis[k - 1], bk
        lam[k - 1], lk[: k - 1] = lk[: k - 1], lam[k - 1]
        b = (d[k - 1] * d[k + 1] + lkk * lkk) // d[k]
        for i in range(k + 1, r):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
            li[k - 1] = (b * t + lkk * li[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    return basis


@dataclass(frozen=True)
class CandidateVector:
    vector: tuple[int, ...]
    norm_sq: int
    in_lattice: bool
    combo: tuple[int, ...] | None = None  # mod-p^s weights on the image rows


def extract_short_vectors(reduced, beta: int, norm_bound_sq):
    """Reduced-basis vectors of sup-norm <= beta, closed under negation.

    norm_bound_sq caps the squared Euclidean length, to demand shortness
    relative to the lattice and not just entry size; math.inf caps nothing.
    """
    seen = set()
    out = []
    for row in reduced:
        if not any(row):
            continue
        if max(abs(x) for x in row) > beta:
            continue
        nsq = sum(x * x for x in row)
        if nsq > norm_bound_sq:
            continue
        for vec in (tuple(row), tuple(-x for x in row)):
            if vec not in seen:
                seen.add(vec)
                out.append(CandidateVector(vec, nsq, True))
    out.sort(key=lambda c: (c.norm_sq, c.vector))
    return out


@dataclass(frozen=True)
class AttackReport:
    p: int
    s: int
    n: int
    k: int
    beta: int
    delta: Fraction
    gh_factor: float
    basis: tuple[tuple[int, ...], ...]
    candidates: tuple[CandidateVector, ...]
    gaussian_heuristic: float
    shortness_ratio: float
    recovery_rank: int
    full_recovery: bool
    elapsed: float


def _or_inf(value):
    """value(), or inf where it leaves the float range (p^s or beta past about 2^1024)."""
    try:
        return value()
    except OverflowError:
        return math.inf


def run_attack(
    instance: GriInstance,
    delta=DEFAULT_DELTA,
    gh_factor: float = DEFAULT_GH_FACTOR,
) -> AttackReport:
    """Run the reduction attack against the public part of an instance.

    Candidates are reduced-basis vectors that fit the sup-norm box and
    are short relative to the Gaussian heuristic of the lattice (a
    reduced basis always contains vectors near the heuristic length,
    so only genuinely planted vectors pass a bound well below it).
    Every candidate is re-verified as an exact lattice member, and its
    expansion over the image rows is recorded; candidates whose
    expansions span all n coordinates pin down an inverse-matrix
    column set, which is full key recovery up to column order.
    gh_factor scales the heuristic bound and must be finite and > 0.
    """
    if not 0 < gh_factor < math.inf:
        raise ValueError(f"gh_factor must be finite and > 0, got {gh_factor}")
    start = time.perf_counter()
    params = instance.params
    d_rows = build_attack_lattice(instance.images, instance.dst.modulus)
    basis, transform = hnf_row_basis(d_rows)
    reduced = lll_reduce(basis, delta)
    k, n, m = params.k, params.n, instance.dst.m
    if len(basis) != k:  # the p^s identity block forces full rank
        raise InvariantBreach(f"attack lattice has rank {len(basis)}, expected {k}")
    det = 1
    for i, row in enumerate(basis):
        det *= row[i]
    gh = _or_inf(lambda: math.sqrt(k / (2 * math.pi * math.e)) * math.exp(math.log(det) / k))
    bound_sq = _or_inf(lambda: (gh_factor * gh) ** 2)
    raw = extract_short_vectors(reduced, params.beta, norm_bound_sq=bound_sq)
    candidates = []
    for cand in raw:
        coords = solve_in_basis(cand.vector, basis)
        if coords is None:  # reduced rows generate the same lattice
            raise InvariantBreach("reduced-basis vector is not in the attack lattice")
        combo = tuple(
            centered(sum(coords[i] * transform[i][j] for i in range(len(coords))), m)
            for j in range(n)
        )
        candidates.append(replace(cand, combo=combo))
    rank = len(_row_reduce([c.combo for c in candidates], params.p, params.p)[1])
    return AttackReport(
        p=params.p,
        s=params.s,
        n=n,
        k=k,
        beta=params.beta,
        delta=Fraction(delta),
        gh_factor=gh_factor,
        basis=tuple(tuple(r) for r in reduced),
        candidates=tuple(candidates),
        gaussian_heuristic=gh,
        shortness_ratio=_or_inf(lambda: params.beta * math.sqrt(k) / gh),
        recovery_rank=rank,
        full_recovery=rank == n,
        elapsed=time.perf_counter() - start,
    )


def render_report(report: AttackReport) -> str:
    """Human-readable attack summary."""
    lines = [
        "GRI lattice attack",
        f"parameters: p={report.p} s={report.s} n={report.n} "
        f"k={report.k} beta={report.beta} delta={report.delta}",
        f"gaussian heuristic: {report.gaussian_heuristic:.3f} "
        f"(target length {_or_inf(lambda: report.beta * math.sqrt(report.k)):.3f}, "
        f"ratio {report.shortness_ratio:.3f})",
        f"candidates within bounds: {len(report.candidates)}",
    ]
    for cand in report.candidates:
        mark = "ok" if cand.in_lattice else "NOT IN LATTICE"
        lines.append(f"  {list(cand.vector)}  |.|^2={cand.norm_sq}  [{mark}]")
    if report.full_recovery:
        lines.append(f"recovery: expansions span all {report.n} coordinates")
    else:
        lines.append(f"recovery: expansion rank {report.recovery_rank}/{report.n}")
    lines.append(f"elapsed: {report.elapsed:.3f}s")
    return "\n".join(lines)
