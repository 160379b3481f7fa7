"""Incidence matrices, the line-action identity, and MV families."""

from itertools import product

import numpy as np
import pytest

from ringkakeya import (
    Direction,
    GFpMatrix,
    GuardExceeded,
    Line,
    MVFamily,
    RingSpec,
    enumerate_directions,
    enumerate_points,
    incidence_matrix,
    incidence_matrix_pk,
    line_action_check,
    mv_rank_bound,
    mv_search,
    mv_verify,
    point_index,
    rank,
    rank_formula_check,
    rank_rational,
)
from ringkakeya.incidence import (
    complement_indicator,
    mv_identity_submatrix_check,
    mv_violations,
)


def brute_incidence(q, n):
    pts = list(product(range(q), repeat=n))
    return [
        [1 if sum(a * b for a, b in zip(x, y)) % q == 0 else 0 for y in pts]
        for x in pts
    ]


def test_incidence_p2_n2_rows():
    W = incidence_matrix(2, 2)
    assert W.a.tolist() == [
        [1, 1, 1, 1],
        [1, 0, 1, 0],
        [1, 1, 0, 0],
        [1, 0, 0, 1],
    ]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 1), (4, 2), (5, 1), (9, 1)])
def test_incidence_matches_brute_force(q, n):
    spec = RingSpec.make(q, n)
    p, k = spec.factors[0]
    W = incidence_matrix_pk(p, k, n)
    assert W.a.tolist() == brute_incidence(q, n)
    assert np.array_equal(W.a, W.a.T)
    # column of b = 0 is all ones
    assert W.a[:, 0].all()


def test_incidence_pk_reduces_to_prime_case():
    assert incidence_matrix_pk(3, 1, 2) == incidence_matrix(3, 2)


def test_incidence_4_1_rows_and_rank():
    W = incidence_matrix_pk(2, 2, 1)
    assert W.a.tolist() == [
        [1, 1, 1, 1],
        [1, 0, 0, 0],
        [1, 0, 1, 0],
        [1, 0, 0, 0],
    ]
    assert rank(W) == 3


def test_guard_refusal():
    with pytest.raises(GuardExceeded):
        incidence_matrix(7, 3, guard=1000)


def test_line_action_example_p3():
    spec = RingSpec.make(3, 2)
    d = Direction.from_vector((1, 0), spec)
    line = Line.through((0, 0), d, spec)
    W = incidence_matrix(3, 2)
    ind = np.zeros(9, dtype=np.int64)
    from ringkakeya import line_points

    for pt in line_points(line, spec):
        ind[point_index(pt, spec)] = 1
    got = ind @ W.a % 3
    want = complement_indicator((1, 0), spec)
    assert np.array_equal(got, want)
    assert int(want.sum()) == 6
    assert line_action_check(line, spec)


def test_line_action_translate_invariance():
    spec = RingSpec.make(5, 2)
    d = Direction.from_vector((1, 3), spec)
    assert line_action_check(Line.through((0, 0), d, spec), spec)
    assert line_action_check(Line.through((2, 4), d, spec), spec)


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_line_action_exhaustive(p, n):
    spec = RingSpec.make(p, n)
    count = 0
    seen = set()
    for d in enumerate_directions(spec):
        for base in enumerate_points(spec):
            line = Line.through(base, d, spec)
            if line in seen:
                continue
            seen.add(line)
            assert line_action_check(line, spec)
            count += 1
    assert count == (p**n - 1) // (p - 1) * p ** (n - 1)


def test_rank_formula_examples():
    assert rank_formula_check(2, 2) == (3, 3, True)
    assert rank_formula_check(3, 2) == (4, 4, True)
    assert rank_formula_check(5, 3) == (16, 16, True)


def test_unit_scaling_fixes_rows_and_columns():
    spec = RingSpec.make(9, 1)
    W = incidence_matrix_pk(3, 2, 1)
    for x in enumerate_points(spec):
        for u in (1, 2, 4, 5, 7, 8):
            ux = tuple(u * c % 9 for c in x)
            i, j = point_index(x, spec), point_index(ux, spec)
            assert np.array_equal(W.a[i], W.a[j])
            assert np.array_equal(W.a[:, i], W.a[:, j])


def test_complement_rows_and_rank_drop():
    # rows of (all-ones minus line-matrix times incidence) are the
    # hyperplane indicators; adding the all-ones row recovers the full row
    # set of the incidence matrix, so the product rank drops by at most one
    from ringkakeya import full_set, line_matrix

    spec = RingSpec.make(3, 2)
    S = full_set(spec)
    W = incidence_matrix(3, 2)
    A = (line_matrix(S, char=3) @ W).a
    J = np.ones_like(A)
    rows_JA = {tuple(r) for r in (J - A) % 3}
    rows_W = {tuple(r) for r in W.a}
    allones = tuple(np.ones(9, dtype=np.int64))
    assert allones not in rows_JA
    assert rows_JA | {allones} == rows_W
    assert rank(GFpMatrix(3, A)) >= rank(W) - 1


@pytest.mark.parametrize(
    "q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (8, 1), (9, 1), (2, 3), (4, 3)]
)
def test_rational_rank_equals_distinct_rows(q, n):
    # over the rationals the incidence matrix has full rank once duplicate
    # rows (unit scalings of the same vector) are identified
    spec = RingSpec.make(q, n)
    p, k = spec.factors[0]
    W = incidence_matrix_pk(p, k, n)
    assert rank_rational(W.a) == len({tuple(r) for r in W.a.tolist()})


def test_mv_verify_examples():
    fam = MVFamily(p=2, k=2, n=2, U=((1, 0), (0, 1)), V=((0, 1), (1, 0)))
    assert mv_verify(fam)
    assert mv_identity_submatrix_check(fam)
    assert mv_rank_bound(fam) == 2
    bad = MVFamily(p=2, k=2, n=2, U=((1, 0),), V=((1, 0),))
    assert not mv_verify(bad)
    assert mv_violations(bad) == [(0, 0, 1)]
    with pytest.raises(ValueError):
        mv_rank_bound(bad)


def test_mv_family_bounds_incidence_rank():
    fam = MVFamily(p=2, k=2, n=2, U=((1, 0), (0, 1)), V=((0, 1), (1, 0)))
    W = incidence_matrix_pk(2, 2, 2)
    assert rank(W) >= mv_rank_bound(fam)


def test_mv_search_small():
    fam, _ = mv_search(2, 1, 2, target_size=2)
    assert fam.size == 2 and mv_verify(fam)
    fam4, _ = mv_search(2, 2, 2, target_size=2)
    assert fam4.size == 2 and mv_verify(fam4)
    # impossible target: returns the best found, no error
    fam_best, _ = mv_search(2, 1, 1, target_size=99, budget=5000)
    assert fam_best.size < 99
    assert mv_verify(fam_best)


def test_mv_search_exhausted_budget():
    # an unreachable target spends the whole budget and reports exactly it;
    # the family is the one the search has always found within that budget
    fam, nodes = mv_search(2, 2, 2, target_size=99, budget=1000)
    assert nodes == 1000
    assert fam.U == ((0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 1))
    assert fam.V == ((1, 0), (0, 1), (1, 3), (2, 1), (1, 1), (1, 2))
    for budget in (1, 2, 7, 50):
        assert mv_search(2, 2, 2, target_size=99, budget=budget)[1] == budget


def test_mv_search_deterministic():
    a, na = mv_search(2, 2, 2, target_size=2)
    b, nb = mv_search(2, 2, 2, target_size=2)
    assert a == b and na == nb
