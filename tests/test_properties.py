"""Hypothesis properties of the packed kernels and of ring evaluation and inversion,
skipped where Hypothesis is not installed.

tests/conftest.py loads a deterministic profile, so every run checks the
same examples.
"""

import random
from functools import cache
from itertools import zip_longest
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from griforge import Modulus, Poly, RingCtx, eval_poly, random_monic_irreducible  # noqa: E402
from griforge.errors import NotAUnit  # noqa: E402
from griforge.linalg import _in_box, _lowered, pack_rows, vec_mat  # noqa: E402
from griforge.poly import _canon, _f2_rem, _f2_square, _fp_inv, _pack, _raw_divmod  # noqa: E402
from griforge.poly import _rem_matrix, _rem_slots, _unpack  # noqa: E402
from griforge.zmod import MAX_MODULUS_BITS, centered  # noqa: E402
from helpers import f2_bits, f2_coeffs, ring_horner, schoolbook_mul, schoolbook_rem  # noqa: E402

# Prime powers the rings use, composite moduli the kernels also accept, and the widest modulus.
MODULI = st.one_of(
    st.sampled_from([2, 3, 4, 9, 251, 2**8, 3**10, 2**32, 65537**3, 2**MAX_MODULUS_BITS]),
    st.integers(min_value=2, max_value=2**80),
)


def _ints(m):
    """Any integer, weighted towards the centered range of m and its edges."""
    lo, hi = -((m - 1) // 2), m // 2
    return st.one_of(
        st.sampled_from([lo, hi, 0, 1, -1, lo - 1, hi + 1, m, -m]),
        st.integers(min_value=lo, max_value=hi),
        st.integers(),
    )


def _centered(m):
    """An integer of the centered range of m, weighted towards its edges."""
    lo, hi = -((m - 1) // 2), m // 2
    return st.one_of(st.sampled_from([lo, hi, 0]), st.integers(min_value=lo, max_value=hi))


@st.composite
def _residue_lists(draw, max_len=12):
    m = draw(MODULI)
    return m, draw(st.lists(_ints(m), max_size=max_len))


@given(_residue_lists(), st.integers(min_value=0, max_value=9))
def test_pack_unpack_round_trip(m_cs, extra):
    m, cs = m_cs
    w = (m - 1).bit_length() + extra  # any slot that holds a residue
    x = _pack(cs, w, m)
    assert _unpack(x, w, len(cs) + 2, m) == [centered(c, m) for c in cs] + [0, 0]


@given(_residue_lists())
def test_canon_is_idempotent_and_congruent(m_cs):
    m, cs = m_cs
    out = _canon(cs, m)
    assert _canon(out, m) == out
    assert not out or out[-1] != 0
    assert all(-m < 2 * c <= m for c in out)
    assert all((a - b) % m == 0 for a, b in zip_longest(cs, out, fillvalue=0))


@st.composite
def _monic_and_input(draw, max_n=8):
    m = draw(MODULI)
    n = draw(st.integers(min_value=1, max_value=max_n))
    f = draw(st.lists(_ints(m), min_size=n, max_size=n)) + [1]
    a = draw(st.lists(_ints(m), max_size=2 * n - 1))
    return m, f, a


@given(_monic_and_input())
def test_canon_modulo_f_matches_long_division(mfa):
    m, f, a = mfa
    out = _canon(a, m, f)
    assert out == schoolbook_rem(a, f, m)
    assert _canon(out, m, f) == out


@given(_monic_and_input())
def test_rem_matrix_matches_long_division(mfa):
    m, f, a = mfa
    w = (m - 1).bit_length()  # _rem_slots takes residue slots
    assert tuple(_rem_slots(_pack(a, w, m), w, _rem_matrix(f, m), m)) == schoolbook_rem(a, f, m)


@st.composite
def _unit_lead_division(draw, max_n=8):
    """m, a and b, whose leading coefficient is any unit mod m, 1 or not."""
    m = draw(st.sampled_from([2**8, 3**5, 251, 2**64]))
    n = draw(st.integers(min_value=0, max_value=max_n))
    lead = draw(_ints(m).filter(lambda c: gcd(c, m) == 1))
    b = draw(st.lists(_ints(m), min_size=n, max_size=n)) + [lead]
    a = draw(st.lists(_ints(m), max_size=2 * n + 3))
    return m, a, b


@given(_unit_lead_division())
@example((2**8, [1, 2, 3, 4], [5, 3]))
@example((3**5, [7], [1, -1, 2]))  # len(a) < len(b): no quotient
@example((2**64, [2**64 + 1, -1, 5], [-1]))  # a constant divisor
def test_raw_divmod_by_a_unit_lead(mab):
    m, a, b = mab
    q, r = _raw_divmod(a, b, m)
    assert len(r) < len(b)
    for out in (q, r):
        assert not out or out[-1] != 0
        assert all(0 <= c < m for c in out)
    assert all((x - y - z) % m == 0 for x, y, z in zip_longest(a, schoolbook_mul(q, b, m), r,
                                                                  fillvalue=0))


@given(_monic_and_input())
def test_raw_divmod_by_monic_matches_long_division(mfa):
    m, f, a = mfa
    assert tuple(centered(c, m) for c in _raw_divmod(a, f, m)[1]) == schoolbook_rem(a, f, m)


@given(st.integers(min_value=0, max_value=2**140))
@example(0)
@example(1)
def test_f2_square_matches_schoolbook_mul(a):
    assert _f2_square(a) == f2_bits(schoolbook_mul(f2_coeffs(a), f2_coeffs(a), 2))


@given(st.integers(min_value=0, max_value=2**140), st.integers(min_value=1, max_value=2**70))
@example(0, 1)
@example(5, 1)  # a constant divisor: remainder 0
@example(0b1011, 0b1011)  # equal degrees: one shift-and-XOR step, of shift 0
@example(0b1000, 0b1011)
@example(0b11, 0b1011)  # a below b is its own remainder
@example(0b1000000, 0b1011)  # x^6 mod x^3 + x + 1: a square's degree, 2 deg b
def test_f2_rem_matches_schoolbook_rem(a, b):
    assert _f2_rem(a, b) == f2_bits(schoolbook_rem(f2_coeffs(a), f2_coeffs(b), 2))


FIELDS = [(2, 6), (3, 5), (13, 4)]


@cache
def _field(p, n):
    """The defining polynomial of a seeded F_{p^n}, sampled on first use rather than at
    import, so a kernel fault that stalls the sampling fails the tests that use it
    instead of the collection of this module."""
    return list(random_monic_irreducible(Modulus(p, 1), n, random.Random(p * n)).coeffs)


@pytest.mark.parametrize("p, n", FIELDS, ids=[f"{p}^{n}" for p, n in FIELDS])
@given(data=st.data())
def test_fp_inv_is_the_inverse_modulo_fbar(p, n, data):
    fb = _field(p, n)
    a = list(_canon(data.draw(st.lists(_ints(p), min_size=1, max_size=n)), p))
    if not a:
        a = [data.draw(st.integers(min_value=1, max_value=p - 1))]
    assert schoolbook_rem(schoolbook_mul(_fp_inv(a, p, fb), a, p), fb, p) == (1,)


def _plain_vec_mat(v, a, m):
    v = list(v) + [0] * (len(a) - len(v))
    return [centered(sum(v[i] * a[i][j] for i in range(len(a))), m) for j in range(len(a))]


@st.composite
def _vector_and_matrix(draw, max_n=8):
    m = draw(MODULI)
    n = draw(st.integers(min_value=1, max_value=max_n))
    a = draw(st.lists(st.lists(_ints(m), min_size=n, max_size=n), min_size=n, max_size=n))
    v = draw(st.lists(_centered(m), max_size=n))  # vec_mat takes centered vectors
    return m, v, a


@given(_vector_and_matrix())
@example((2, [1], [[1]]))  # m = 2 at n = 1: the centered range is {0, 1}
@example((2, [0, 1, 1], [[1] * 3] * 3))
@example((4, [-1, 2], [[3, 3], [3, 3]]))  # both edges of an even m against entries m - 1
@example((9, [-4, -4], [[8, 8], [8, 8]]))  # the most negative slot sums of an odd m
@example((3**10, [3**10 // 2] * 4, [[-1] * 4] * 4))  # the most positive ones
@example((2**32, [2**31, 1 - 2**31], [[-1, 7], [2**32, -(2**31)]]))  # matrix entries out of range
def test_offset_vec_mat_matches_plain_sum(mva):
    m, v, a = mva
    assert vec_mat(v, pack_rows(a, m), m) == _plain_vec_mat(v, a, m)


@st.composite
def _raw_draws_and_matrix(draw, max_n=8):
    m = draw(MODULI)
    n = draw(st.integers(min_value=1, max_value=max_n))
    a = draw(st.lists(st.lists(_ints(m), min_size=n, max_size=n), min_size=n, max_size=n))
    top = (m - 1) // 2
    beta = draw(st.one_of(st.sampled_from([0, top]), st.integers(min_value=0, max_value=top)))
    edges = st.sampled_from([0, beta, 2 * beta])
    x = draw(st.lists(st.one_of(edges, st.integers(0, 2 * beta)), min_size=n, max_size=n))
    return m, beta, x, a


# n = 1 at the widest beta, 2 beta + 1 <= m, with draws at both ends of [0, 2 beta]
@given(_raw_draws_and_matrix())
@example((2, 0, [0], [[1]]))
@example((3, 1, [0], [[1]]))
@example((3, 1, [2], [[2]]))
@example((2**8, 127, [0], [[1]]))
@example((2**8, 127, [254], [[255]]))
@example((3**5, 121, [0], [[-1]]))
@example((3**5, 121, [242], [[1]]))
@example((2**32, 2**31 - 1, [0], [[1]]))
@example((2**32, 2**31 - 1, [2**32 - 2], [[2**32 - 1]]))
def test_lowered_packing_takes_raw_draws(mbxa):
    # challenge_from_instance feeds chi_beta's raw draws in [0, 2 beta] to vec_mat
    m, beta, x, a = mbxa
    packed = pack_rows(a, m)
    assert vec_mat(x, _lowered(packed, beta), m) == vec_mat([c - beta for c in x], packed, m)


@given(_vector_and_matrix())
@example((2, [], [[1]]))  # the zero vector, in the box even at beta = -1
@example((3, [1], [[1]]))  # slot residues 1 and m - 1: both edges of the box
@example((3, [-1], [[1]]))
@example((4, [-1, 2], [[3, 3], [3, 3]]))
@example((9, [-4, -4], [[8, 8], [8, 8]]))
@example((2**32, [2**31, 1 - 2**31], [[-1, 7], [2**32, -(2**31)]]))
# m = 2, the narrowest slot per bit of m, with n >= 2 slots tested at once
@example((2, [1, 1], [[1, 0], [1, 1]]))
@example((2, [1, 1], [[1, 1], [1, 1]]))  # a zero product, in the box at beta = 0
@example((2, [0, 1], [[1, 1], [0, 1]]))
@example((2, [1] * 8, [[int(i == j) for j in range(8)] for i in range(8)]))
@example((2, [1, 0, 1], [[1, -1, 0], [2, 0, 3], [0, 0, -1]]))
# the widest m, with one pull-back entry at exactly m/2 next to entries in and out of the box
@example((2**MAX_MODULUS_BITS, [2 ** (MAX_MODULUS_BITS - 1), 0], [[1, 0], [0, 1]]))
@example((2**MAX_MODULUS_BITS, [2 ** (MAX_MODULUS_BITS - 1), 1], [[1, 1], [0, -1]]))
@example((2**MAX_MODULUS_BITS, [2 ** (MAX_MODULUS_BITS - 1), -1, 3], [[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
# entries at both edges of the widest box short of m/2, whose residues wrap past m
@example((2**MAX_MODULUS_BITS, [2 ** (MAX_MODULUS_BITS - 1) - 1, 1 - 2 ** (MAX_MODULUS_BITS - 1)], [[1, 0], [0, 1]]))
def test_in_box_matches_min_max_of_vec_mat(mva):
    m, v, a = mva
    packed = pack_rows(a, m)
    out = vec_mat(v, packed, m)
    if m <= 2**8:
        betas = range(-1, m + 1)
    else:  # the answer changes only where beta crosses an entry's absolute value
        edges = {abs(c) + d for c in out for d in (-1, 0, 1)}
        betas = sorted(edges | {-1, 0, (m - 1) // 2, m // 2, m - 1, m})
    for beta in betas:
        # the oracle's test on the pulled-back coefficients: zero is short at every beta
        want = not any(out) or -beta <= min(out) and max(out) <= beta
        assert _in_box(v, packed, m, beta) == want, beta


# One ring per modulus: 2^8, 3^10, 251 (the residue field F_251^4) and the widest 2^4096.
RINGS = [(2, 8, 6), (3, 10, 8), (251, 1, 4), (2, MAX_MODULUS_BITS, 5)]
RING_IDS = ["2^8", "3^10", "251", "2^4096"]


@cache
def _ring(p, s, n):
    """A seeded GR(p^s, n), built on first use like _field."""
    return RingCtx(random_monic_irreducible(Modulus(p, s), n, random.Random(p + s + n)))


@st.composite
def _point(draw, ctx):
    """An element of ctx that is zero, a unit or a non-unit (in (p)), with its kind."""
    kind = draw(st.sampled_from(["zero", "unit", "non-unit"]))
    cs = draw(st.lists(_centered(ctx.m), min_size=ctx.n, max_size=ctx.n))
    if kind == "zero":
        return kind, ctx.zero()
    if kind == "non-unit":
        return kind, ctx.elem([ctx.p * c for c in cs])
    a = ctx.elem(cs)
    return kind, a if a.is_unit() else a + ctx.one()


@pytest.mark.parametrize("spec", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("shape", ["zero", "0", "1", "n-1", "n", "2n+1"])
# No shrink phase: shrinking a failure over moduli up to 2^4096 takes seconds per case.
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_eval_poly_matches_horner(spec, shape, data):
    ctx = _ring(*spec)
    # the degrees pin Paterson-Stockmeyer's block edges: k = 1 at degree 0, and
    # deg g + 1 both a multiple of k and not one across the rings
    n, m = ctx.n, ctx.m
    deg = {"zero": -1, "0": 0, "1": 1, "n-1": n - 1, "n": n, "2n+1": 2 * n + 1}[shape]
    low = data.draw(st.lists(_centered(m), min_size=max(deg, 0), max_size=max(deg, 0)))
    lead = [data.draw(st.integers(min_value=1, max_value=m - 1))] if deg >= 0 else []
    g = Poly(low + lead, ctx.modulus)
    assert g.degree == deg
    _, a = data.draw(_point(ctx))
    assert eval_poly(g, a) == ring_horner(g, a)


@pytest.mark.parametrize("spec", RINGS, ids=RING_IDS)
@given(data=st.data())
def test_inverse_of_a_unit_and_none_in_p(spec, data):
    ctx = _ring(*spec)
    kind, a = data.draw(_point(ctx))
    if kind == "unit":
        assert a * a.inv() == ctx.one()
    else:
        with pytest.raises(NotAUnit):
            a.inv()
