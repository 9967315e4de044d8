import random
from itertools import product

import pytest

from griforge import gen_instance, run_attack
from griforge.linalg import _row_reduce, mat_inv_mod, pack_rows, vec_mat
from griforge.zmod import MAX_MODULUS_BITS, centered
from helpers import det_fraction


@pytest.mark.parametrize("p, s, n", [(2, 2, 2), (3, 2, 2), (2, 1, 3)], ids=["mod4", "mod9", "3x3mod2"])
def test_mat_inv_mod_exhaustive(p, s, n):
    """Over every n x n matrix mod p^s: an inverse exactly when the determinant is a unit."""
    m = p**s
    half = m // 2
    residues = range(half - m + 1, half + 1)
    for entries in product(residues, repeat=n * n):
        a = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
        if int(det_fraction(a)) % p:
            inv = mat_inv_mod(a, m, p)
            assert all(-m < 2 * x <= m for row in inv for x in row)
            prod = [[sum(a[i][k] * inv[k][j] for k in range(n)) % m for j in range(n)] for i in range(n)]
            assert prod == [[int(i == j) for j in range(n)] for i in range(n)], a
        else:
            with pytest.raises(ValueError, match="not invertible modulo p"):
                mat_inv_mod(a, m, p)


def test_mat_inv_mod_singular_mod_p_only():
    """det 2 is nonzero mod 4 but not a unit: the same refusal as a singular matrix."""
    with pytest.raises(ValueError, match="not invertible modulo p"):
        mat_inv_mod([[2, 0], [0, 1]], 4, 2)


# m = 2^8, 2^16, 2^32 and 2^64 read their slots in one signed struct read; the 2^s next to
# them (2^7, 2^9, 2^63, 2^65) and other m read slot by slot. n = 1 with v = [m/2] gives an
# output of exactly m/2 at each even m.
@pytest.mark.parametrize("m", [2, 3, 4, 9, 2**7, 2**8, 2**9, 3**10, 2**16, 2**20, 2**32, 2**63,
                               2**64, 2**65, 2**MAX_MODULUS_BITS])
def test_vec_mat_offset_covers_the_extreme_slot_sums(m):
    # a centered v at either edge of its range against entries m - 1 gives the
    # most negative and the most positive slot sums the offset and width allow for
    lo, hi = -((m - 1) // 2), m // 2
    for n in (1, 2, 24):
        a = [[m - 1] * n for _ in range(n)]
        for v in ([lo] * n, [hi] * n, [lo, hi] * (n // 2)):
            want = [centered(sum(x * (m - 1) for x in v), m)] * n
            assert vec_mat(v, pack_rows(a, m), m) == want, (m, n, v)


def _random_combos(rng, p, m, count, n):
    rows = [[rng.randrange(m) - m // 2 for _ in range(n)] for _ in range(count)]
    if rows:
        rows.append([0] * n)
        rows.append(list(rows[0]))
        rows.append([p * rng.randrange(m // p) for _ in range(n)])
        rng.shuffle(rows)
    return rows


def _sympy_rref(rows, p, n):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    field = sympy.GF(p)
    mat = DomainMatrix([[field(x % p) for x in r] for r in rows], (len(rows), n), field)
    reduced, pivots = mat.rref()
    return [[int(x) % p for x in r] for r in reduced.to_list()], list(pivots)


@pytest.mark.parametrize("p, s", [(2, 8), (3, 4), (5, 1), (251, 1)])
def test_row_reduce_mod_p_matches_sympy(p, s):
    rng = random.Random(p * 100 + s)
    m = p**s
    for count in [0, 1, 2, 5, 9]:
        for n in [1, 3, 6]:
            rows = _random_combos(rng, p, m, count, n)
            assert _row_reduce(rows, p, p) == _sympy_rref(rows, p, n), rows


def test_recovery_rank_matches_sympy():
    """run_attack's recovery rank is the F_p rank of the candidate combos."""
    for seed in range(5000, 5010):
        report = run_attack(gen_instance(2, 8, 6, 1, 12, random.Random(seed)).public_only())
        combos = [c.combo for c in report.candidates]
        _, pivots = _sympy_rref(combos, 2, 6)
        assert report.recovery_rank == len(pivots)
