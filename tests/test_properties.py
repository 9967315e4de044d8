"""Hypothesis properties of the packed kernels, skipped where Hypothesis is not installed.

tests/conftest.py loads a deterministic profile, so every run checks the
same examples.
"""

from itertools import zip_longest

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from griforge.linalg import pack_rows, vec_mat  # noqa: E402
from griforge.poly import _canon, _pack, _rem_matrix, _rem_slots, _unpack  # noqa: E402
from griforge.zmod import MAX_MODULUS_BITS, centered  # noqa: E402
from helpers import schoolbook_rem  # noqa: E402

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
