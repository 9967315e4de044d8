"""Checks against a third-party implementation, skipped where it is not installed."""

import random
from fractions import Fraction

import pytest

from griforge import (
    Modulus,
    Poly,
    RingCtx,
    find_root,
    gen_instance,
    is_irreducible_mod_p,
    lll_reduce,
    random_monic_irreducible,
)
from griforge.lattice import build_attack_lattice, hnf_row_basis
from helpers import schoolbook_mul

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ
QQ = pytest.importorskip("sympy.polys.domains").QQ
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix


def _gf(coeffs, p):
    """Ascending centered coefficients as a galoistools polynomial: descending residues mod p."""
    return [c % p for c in reversed(coeffs)]


def _sympy_irreducible(f: Poly) -> bool:
    p = f.modulus.p
    return galoistools.gf_irreducible_p(_gf(f.coeffs, p), p, ZZ)


@pytest.mark.parametrize("p, s, n", [(2, 1, 6), (2, 1, 24), (3, 1, 8), (13, 1, 16), (251, 1, 8)])
def test_irreducibility_agrees_with_sympy(p, s, n):
    rng = random.Random(p * 100 + n)
    m = Modulus(p, s)
    polys = [Poly([rng.randrange(p) for _ in range(n)] + [1], m) for _ in range(60)]
    polys.append(random_monic_irreducible(m, n, rng))
    g1, g2 = (random_monic_irreducible(m, d, rng) for d in (n // 2, n - n // 2))
    products = [Poly(schoolbook_mul(g1.coeffs, g.coeffs, p), m) for g in (g2, g1)]
    verdicts = [is_irreducible_mod_p(f) for f in polys + products]
    assert verdicts == [_sympy_irreducible(f) for f in polys + products]
    assert verdicts[-2:] == [False, False]
    assert is_irreducible_mod_p(g1) and _sympy_irreducible(g1)
    assert True in verdicts[:-2] and False in verdicts[:-2]


def _zz(rows):
    return DomainMatrix([[ZZ(x) for x in r] for r in rows], (len(rows), len(rows[0])), ZZ)


def _sympy_lll(rows):
    return [[int(x) for x in r] for r in _zz(rows).lll(delta=QQ(3, 4)).to_Matrix().tolist()]


def test_lll_matches_sympy_on_random_full_rank_matrices():
    checked = 0
    for seed in range(40):
        rng = random.Random(seed)
        r = rng.randrange(1, 9)
        c = rng.randrange(r, 11)
        bits = rng.choice([3, 10, 40])
        rows = [[rng.randrange(-(2**bits), 2**bits + 1) for _ in range(c)] for _ in range(r)]
        if _zz(rows).rank() < r:
            continue  # sympy's LLL needs independent rows
        assert lll_reduce(rows, Fraction(3, 4)) == _sympy_lll(rows), rows
        checked += 1
    assert checked >= 35


@pytest.mark.parametrize("cell", [(2, 8, 6, 1, 12), (3, 4, 8, 1, 16), (2, 16, 12, 1, 30)])
def test_lll_matches_sympy_on_attack_bases(cell):
    for seed in range(5):
        inst = gen_instance(*cell, rng=random.Random(seed))
        basis = hnf_row_basis(build_attack_lattice(inst.images, inst.dst.modulus))[0]
        assert lll_reduce(basis, Fraction(3, 4)) == _sympy_lll(basis), (cell, seed)


@pytest.mark.parametrize("p, n", [(2, 6), (3, 8), (13, 12), (251, 4)])
def test_find_root_roots_satisfy_sympy_composition(p, n):
    rng = random.Random(p * 100 + n)
    m = Modulus(p, 1)
    g = random_monic_irreducible(m, n, rng)
    field = RingCtx(random_monic_irreducible(m, n, rng))
    fbar = _gf(field.f.coeffs, p)
    for _ in range(5):
        root = find_root(g, field, rng)
        g_of_root = galoistools.gf_compose_mod(_gf(g.coeffs, p), _gf(root.coeffs, p), fbar, p, ZZ)
        assert g_of_root == [], (g, root)
