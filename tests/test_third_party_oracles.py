"""Checks against a third-party implementation, skipped where it is not installed."""

import random

import pytest

from griforge import Modulus, Poly, is_irreducible_mod_p, random_monic_irreducible
from helpers import schoolbook_mul

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ


def _sympy_irreducible(f: Poly) -> bool:
    p = f.modulus.p
    return galoistools.gf_irreducible_p([c % p for c in reversed(f.coeffs)], p, ZZ)


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
