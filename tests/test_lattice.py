import math
import random
from fractions import Fraction

import pytest

from griforge import (
    Modulus,
    build_attack_lattice,
    gen_instance,
    hnf_row_basis,
    in_lattice,
    lll_reduce,
    run_attack,
)
from griforge.errors import BadDelta, CtxMismatch
from griforge.lattice import extract_short_vectors, render_report, solve_in_basis
from helpers import (
    enumerate_shortest,
    fraction_lll,
    gram_det,
    is_lll_reduced,
    transform_between,
)

DELTA = Fraction(99, 100)


def _random_full_rank(rng, rank, bound=100):
    from helpers import det_fraction

    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(rank)] for _ in range(rank)]
        if det_fraction(rows) != 0:
            return rows


def test_build_attack_lattice_dimensions():
    inst = gen_instance(2, 2, 2, 1, 3, random.Random(0))
    d = build_attack_lattice(inst.images, inst.dst.modulus)
    assert len(d) == 5 and all(len(row) == 3 for row in d)  # (n+k) x k
    assert d[2:] == [[4, 0, 0], [0, 4, 0], [0, 0, 4]]

    single = build_attack_lattice(inst.images[:1], inst.dst.modulus)
    assert len(single) == 3 and all(len(row) == 1 for row in single)


def test_build_attack_lattice_identity_block_rows():
    inst = gen_instance(3, 2, 3, 1, 4, random.Random(1))
    d = build_attack_lattice(inst.images, inst.dst.modulus)
    n, k, m = 3, 4, 9
    for j in range(k):
        row = d[n + j]
        assert row[j] == m and all(x == 0 for i, x in enumerate(row) if i != j)


def test_build_attack_lattice_ctx_mismatch():
    a = gen_instance(2, 2, 2, 1, 2, random.Random(2))
    b = gen_instance(2, 2, 2, 1, 2, random.Random(3))
    with pytest.raises(CtxMismatch):
        build_attack_lattice([a.images[0], b.images[0]], a.dst.modulus)
    with pytest.raises(CtxMismatch):
        build_attack_lattice(a.images, Modulus(3, 2))


def test_lll_identity_already_reduced():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert lll_reduce(ident, DELTA) == ident


def test_lll_small_example_finds_shortest():
    reduced = lll_reduce([[12, 2], [13, 4]], DELTA)
    # exhaustive enumeration confirms (1, 2) is a shortest nonzero vector
    vec, norm = enumerate_shortest([[12, 2], [13, 4]])
    assert norm == 5 and tuple(sorted(map(abs, vec))) == (1, 2)
    assert [1, 2] in reduced or [-1, -2] in reduced


def test_lll_bad_delta():
    # inf, nan and "abc" are not Fractions at all; each is a bad delta all the same
    for delta in (Fraction(1, 4), 1, math.inf, -math.inf, math.nan, "abc"):
        with pytest.raises(BadDelta):
            lll_reduce([[1, 0], [0, 1]], delta)


def test_lll_gram_determinant_preserved():
    rng = random.Random(4)
    for _ in range(10):
        rows = _random_full_rank(rng, rng.randrange(2, 5), 30)
        reduced = lll_reduce(rows, DELTA)
        assert gram_det(reduced) == gram_det(rows)


def test_lll_properties_random_lattices():
    rng = random.Random(5)
    for _ in range(15):
        rank = rng.randrange(2, 7)
        rows = _random_full_rank(rng, rank)
        reduced = lll_reduce(rows, DELTA)
        assert is_lll_reduced(reduced, DELTA)
        u = transform_between(rows, reduced)
        assert u is not None
        from helpers import det_fraction

        assert abs(det_fraction(u)) == 1
        vec, shortest = enumerate_shortest(reduced)
        first = sum(x * x for x in reduced[0])
        assert first <= 2 ** (rank - 1) * shortest


def test_lll_handles_dependent_rows():
    rows = [[2, 0], [0, 3], [2, 3], [4, 6]]
    reduced = lll_reduce(rows, DELTA)
    assert len(reduced) == 2
    assert is_lll_reduced(reduced, DELTA)
    for row in rows:
        assert in_lattice(row, reduced)
    for row in reduced:
        assert in_lattice(row, rows)


def _oracle_bases(rng, count):
    """Square, wide, rank-deficient and zero-row bases, in turn."""
    for t in range(count):
        cols = rng.randrange(1, 7)
        rows = [[rng.randint(-60, 60) for _ in range(cols)] for _ in range(cols)]
        kind = t % 4
        if kind == 1:
            rows += [[rng.randint(-60, 60) for _ in range(cols)] for _ in range(rng.randrange(1, 4))]
        elif kind == 2:
            a, b = rng.sample(range(cols), 2) if cols > 1 else (0, 0)
            rows[a] = [rng.randint(-3, 3) * x for x in rows[b]]
        elif kind == 3:
            rows.insert(rng.randrange(cols + 1), [0] * cols)
        yield rows


@pytest.mark.parametrize(
    "delta", [Fraction(51, 100), Fraction(3, 4), Fraction(99, 100), 0.99], ids=str
)
def test_lll_matches_fraction_oracle(delta):
    for rows in _oracle_bases(random.Random(12), 200):
        reduced = lll_reduce(rows, delta)
        assert reduced == fraction_lll(rows, delta), rows
        assert is_lll_reduced(reduced, Fraction(delta))


@pytest.mark.parametrize("beta", [1, 64])
def test_lll_matches_fraction_oracle_on_attack_lattice(beta):
    inst = gen_instance(2, 8, 6, beta, 12, random.Random(0))
    basis, _ = hnf_row_basis(build_attack_lattice(inst.images, inst.dst.modulus))
    reduced = lll_reduce(basis, DELTA)
    assert reduced == fraction_lll(basis, DELTA)
    assert is_lll_reduced(reduced, DELTA)


def test_hnf_row_basis_transform_consistent():
    rng = random.Random(6)
    rows = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(7)]
    basis, transform = hnf_row_basis(rows)
    for trow, brow in zip(transform, basis):
        combo = [sum(trow[i] * rows[i][j] for i in range(len(rows))) for j in range(4)]
        assert combo == brow


@pytest.mark.parametrize("rows", [
    [[2, 3, 5], [7, 11, 13]],
    [[0, 4, 6, 8], [3, 5, 7, 9]],
    [[1, 0, 0, 0, 0]],
    [[3, -7, 2, 9, 4, 1], [5, 0, -6, 2, 8, -3], [1, 4, 4, -5, 0, 7]],
], ids=["2x3", "2x4-zero-corner", "1x5", "3x6"])
def test_hnf_row_basis_of_wide_full_rank_rows(rows):
    # fewer rows than columns: the pivots run out before the columns do
    from helpers import det_fraction
    basis, t = hnf_row_basis(rows)
    assert len(basis) == len(rows) and abs(det_fraction(t)) == 1
    nc = len(rows[0])
    assert basis == [[sum(ti * row[j] for ti, row in zip(trow, rows)) for j in range(nc)]
                     for trow in t]
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, j in enumerate(pivots):
        assert basis[i][j] > 0 and all(0 <= basis[h][j] < basis[i][j] for h in range(i))


def test_true_bj_vectors_lie_in_lattice():
    inst = gen_instance(2, 8, 6, 1, 12, random.Random(7))
    d = build_attack_lattice(inst.images, inst.dst.modulus)
    basis, _ = hnf_row_basis(d)
    for j in range(inst.params.n):
        bj = [a.coeff_vector()[j] for a in inst.secret.preimages]
        assert solve_in_basis(bj, basis) is not None


@pytest.mark.parametrize("v", [[1, 0, 5], [1], []])
def test_membership_rejects_a_vector_of_another_length(v):
    # zip would drop the extra entries of [1, 0, 5] and call it a member
    with pytest.raises(ValueError, match="width 2"):
        in_lattice(v, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="width 2"):
        solve_in_basis(v, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="width 2"):
        in_lattice(v, [[0, 0]])  # a zero lattice has an empty echelon basis


def test_entry_points_refuse_non_integer_entries():
    # Entries go through operator.index, as Poly's do: int() would truncate 1.5 and parse "3".
    for bad in (1.5, "3"):
        with pytest.raises(TypeError):
            lll_reduce([[bad, 0], [0, 1]])
        with pytest.raises(TypeError):
            hnf_row_basis([[3, 0], [0, bad]])
        with pytest.raises(TypeError):
            in_lattice([1, 0], [[bad, 0], [0, 1]])
        with pytest.raises(TypeError):
            in_lattice([bad, 0], [[1, 0], [0, 1]])


def test_extract_empty_when_nothing_short():
    assert extract_short_vectors([[100, 0], [0, 100]], 1, math.inf) == []


def test_extract_closed_under_negation_and_verified():
    reduced = [[1, 0, -1], [5, 5, 5], [0, 0, 0], [0, 1, 1]]
    cands = extract_short_vectors(reduced, 1, math.inf)
    vectors = {c.vector for c in cands}
    assert (0, 0, 0) not in vectors  # a zero row is no candidate
    assert (1, 0, -1) in vectors and (-1, 0, 1) in vectors
    assert (0, 1, 1) in vectors and (0, -1, -1) in vectors
    assert all(c.in_lattice for c in cands)
    assert all(max(map(abs, c.vector)) <= 1 for c in cands)


def test_extract_norm_bound_filter():
    reduced = [[1, 1, 1, 1], [1, 0, 0, 0]]
    cands = extract_short_vectors(reduced, 1, norm_bound_sq=2)
    assert {c.vector for c in cands} == {(1, 0, 0, 0), (-1, 0, 0, 0)}


def test_run_attack_weak_parameters_single_seed():
    inst = gen_instance(2, 8, 6, 1, 12, random.Random(8))
    report = run_attack(inst.public_only())
    assert report.candidates, "weak instance should yield candidates"
    true_bjs = set()
    for j in range(inst.params.n):
        v = tuple(a.coeff_vector()[j] for a in inst.secret.preimages)
        true_bjs.add(v)
        true_bjs.add(tuple(-x for x in v))
    assert any(c.vector in true_bjs for c in report.candidates)
    d = build_attack_lattice(inst.images, inst.dst.modulus)
    for cand in report.candidates:
        assert cand.in_lattice
        assert in_lattice(cand.vector, d)
        assert max(map(abs, cand.vector)) <= 1
    assert report.elapsed >= 0.0
    assert report.shortness_ratio < 1


def test_run_attack_candidate_combos_reproduce_vectors():
    inst = gen_instance(2, 8, 6, 1, 12, random.Random(9))
    report = run_attack(inst.public_only())
    m = inst.dst.m
    p_rows = [
        [a.coeff_vector()[i] for a in inst.images] for i in range(inst.params.n)
    ]
    for cand in report.candidates:
        recon = [
            sum(cand.combo[i] * p_rows[i][j] for i in range(inst.params.n)) % m
            for j in range(inst.params.k)
        ]
        assert recon == [x % m for x in cand.vector]


def test_run_attack_hardened_typically_empty():
    inst = gen_instance(2, 8, 6, 64, 12, random.Random(10))
    report = run_attack(inst.public_only())
    assert report.candidates == ()


def test_run_attack_custom_delta_validation():
    inst = gen_instance(2, 4, 2, 1, 4, random.Random(11))
    for delta in (Fraction(1, 8), math.inf):
        with pytest.raises(BadDelta):
            run_attack(inst.public_only(), delta=delta)


@pytest.mark.parametrize("gh_factor", [-0.8, float("nan"), float("inf"), 0])
def test_run_attack_rejects_bad_gh_factor(gh_factor):
    # a negative factor squares to the same bound, nan and inf disable it
    inst = gen_instance(2, 4, 2, 1, 4, random.Random(11))
    with pytest.raises(ValueError, match="gh_factor"):
        run_attack(inst.public_only(), gh_factor=gh_factor)


@pytest.mark.parametrize(
    "s,beta", [(1100, 1), (4000, 1), (1100, 2**1097)], ids=["1100", "4000", "1100-beta-2^1097"]
)
def test_run_attack_past_float_range(s, beta):
    # p^s past 2^1024: at s = 1100 the square of the Gaussian heuristic leaves
    # the float range, at s = 4000 the heuristic itself; either bound is inf.
    # beta = 2^1097 < p^s / 2 is a valid bound, but beta * sqrt(k) is no
    # float: the ratio and the rendered target length are inf.
    inst = gen_instance(2, s, 2, beta, 4, random.Random(1))
    report = run_attack(inst.public_only())
    gh = report.gaussian_heuristic
    if beta > 1:
        assert math.isfinite(gh) and report.shortness_ratio == math.inf
        assert "(target length inf, ratio inf)" in render_report(report)
    elif s == 1100:
        assert math.isfinite(gh) and report.shortness_ratio == math.sqrt(4) / gh
    else:
        assert gh == math.inf and report.shortness_ratio == 0.0
    assert report.full_recovery and report.candidates


def test_solve_in_basis_of_a_non_member_is_none():
    basis = hnf_row_basis([[2, 0], [0, 3]])[0]
    assert solve_in_basis([2, 3], basis) == [1, 1]
    assert solve_in_basis([1, 3], basis) is None and solve_in_basis([2, 1], basis) is None
    assert not in_lattice([2, 1], [[2, 0], [0, 3]])


@pytest.mark.parametrize("call, message", [
    (lambda: build_attack_lattice([], Modulus(2, 3)), "at least one image"),
    (lambda: hnf_row_basis([]), "empty matrix"),
    (lambda: hnf_row_basis([[]]), "rectangular and non-empty"),
    (lambda: lll_reduce([[1, 2], [3]]), "rectangular and non-empty"),
    (lambda: in_lattice([1], [[]]), "rectangular and non-empty"),
], ids=["no-images", "no-rows", "zero-width", "ragged", "zero-width-membership"])
def test_empty_and_ragged_matrices_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
