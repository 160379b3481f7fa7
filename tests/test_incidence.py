"""Incidence matrices, the line-action identity, and MV families."""

from itertools import product

import numpy as np
import pytest

from ringkakeya import (
    GuardExceeded,
    MVFamily,
    RingSpec,
    incidence_matrix,
    incidence_matrix_pk,
    incidence_quotient,
    mv_search,
    mv_verify,
    rank,
    rank_formula,
)
from ringkakeya.incidence import complement_indicator, mv_violations
from ringkakeya.selftest import (
    complement_rows_p3,
    line_action,
    rational_rank_equals_distinct_rows,
    unit_scaling_fixes_rows,
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
    with pytest.raises(GuardExceeded,
                       match=r"^incidence matrix W_\{7,3\}: 343 x 343 "):
        incidence_matrix(7, 3, guard=1000)


def test_incidence_quotient_4_1_rows():
    # orbits {0}, {1, 3}, {2}: the rows of points 0, 1, 2 of W_{4,1}
    assert incidence_quotient(2, 2, 1).a.tolist() == [
        [1, 1, 1],
        [1, 0, 0],
        [1, 0, 1],
    ]


def test_incidence_quotient_refusals():
    # the guard counts the q^n x n point table, then the quotient
    with pytest.raises(GuardExceeded,
                       match=r"^point table of \(Z/7\)\^3: 343 x 3 "):
        incidence_quotient(7, 1, 3, guard=1000)
    with pytest.raises(GuardExceeded,
                       match=r"^unit-orbit quotient of W_\{27,3\}: 1184 x 1184 "):
        incidence_quotient(3, 3, 3, guard=1_000_000)
    # 2^63 points fit a huge guard, but their ids do not fit int64; the
    # refusal comes before the point table is allocated
    with pytest.raises(OverflowError):
        incidence_quotient(2, 63, 1, guard=10**30)


def test_line_action_example_p3():
    # the line {(0, 0), (1, 0), (2, 0)} (points 0, 3, 6) times W is the
    # complement of the hyperplane x_1 = 0, the points with x_1 != 0
    spec = RingSpec.make(3, 2)
    got = np.array([1, 0, 0, 1, 0, 0, 1, 0, 0]) @ incidence_matrix(3, 2).a % 3
    assert got.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 1]
    assert np.array_equal(got, complement_indicator((1, 0), spec))


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_line_action_exhaustive(p, n):
    assert line_action(p, n)


def test_rank_formula_examples():
    for p, n, want in [(2, 2, 3), (3, 2, 4), (5, 3, 16)]:
        assert rank(incidence_quotient(p, 1, n)) == rank_formula(p, n) == want


def test_unit_scaling_fixes_rows_and_columns():
    assert unit_scaling_fixes_rows(9, 1)


def test_complement_rows_and_rank_drop():
    assert all(ok for _, ok in complement_rows_p3())


@pytest.mark.parametrize(
    "q,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (8, 1), (9, 1), (2, 3), (4, 3)]
)
def test_rational_rank_equals_distinct_rows(q, n):
    assert rational_rank_equals_distinct_rows(q, n)


def test_mv_verify_examples():
    fam = MVFamily(p=2, k=2, n=2, U=((1, 0), (0, 1)), V=((0, 1), (1, 0)))
    assert mv_verify(fam) and fam.size == 2
    bad = MVFamily(p=2, k=2, n=2, U=((1, 0),), V=((1, 0),))
    assert not mv_verify(bad)
    assert mv_violations(bad) == [(0, 0, 1)]


def test_mv_family_bounds_incidence_rank():
    fam = MVFamily(p=2, k=2, n=2, U=((1, 0), (0, 1)), V=((0, 1), (1, 0)))
    W = incidence_matrix_pk(2, 2, 2)
    assert mv_verify(fam) and rank(W) >= fam.size


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


def tuple_mv_search(p, k, n, target_size, budget):
    """The tuple search that recomputes every inner product at every node:
    the reference for the orthogonality-table search."""
    q = p**k
    vectors = list(product(range(q), repeat=n))
    if target_size >= 2:
        vectors = [v for v in vectors if any(v)]
    pairs = [(u, v) for u in vectors for v in vectors]
    nodes = 0
    best = []

    def ok_pair(u, v, U, V):
        if sum(a * b for a, b in zip(u, v)) % q:
            return False
        for w in V:
            if sum(a * b for a, b in zip(u, w)) % q == 0:
                return False
        for w in U:
            if sum(a * b for a, b in zip(w, v)) % q == 0:
                return False
        return True

    def dfs(U, V, start):
        nonlocal nodes, best
        if len(U) > len(best):
            best = list(zip(U, V))
        if len(U) >= target_size or nodes >= budget:
            return len(U) >= target_size
        for idx in range(start, len(pairs)):
            if nodes >= budget:
                return False
            nodes += 1
            u, v = pairs[idx]
            if ok_pair(u, v, U, V):
                if dfs(U + [u], V + [v], idx + 1):
                    return True
        return False

    dfs([], [], 0)
    return tuple(u for u, _ in best), tuple(v for _, v in best), nodes


@pytest.mark.parametrize("p,k,n,target,budget", [
    (2, 1, 2, 2, 1000),
    (2, 1, 3, 1, 100),
    (2, 1, 3, 4, 1000),
    (3, 1, 2, 3, 1000),
    (3, 1, 3, 5, 3000),
    (5, 1, 2, 3, 2000),
    (2, 2, 2, 3, 5000),
    (2, 2, 3, 6, 1500),
    (3, 2, 2, 6, 1500),
    (3, 1, 4, 6, 20000),
    (2, 2, 2, 99, 1),
])
def test_mv_search_matches_tuple_search(p, k, n, target, budget):
    fam, nodes = mv_search(p, k, n, target, budget=budget)
    assert (fam.U, fam.V, nodes) == tuple_mv_search(p, k, n, target, budget)


def orth_table_mv_search(p, k, n, target_size, budget):
    """The per-node search that looks every pair up in a list-of-lists
    orthogonality table, one node at a time: the reference for the bitmask
    scan.  Also returns the node count at which each pair was accepted."""
    q = p**k
    vectors = list(product(range(q), repeat=n))
    if target_size >= 2:
        vectors = [v for v in vectors if any(v)]
    m = len(vectors)
    X = np.array(vectors, dtype=np.int64).reshape(m, n)
    orth = (X @ X.T % q == 0).tolist()
    nodes = 0
    best = []
    accepted = []

    def dfs(us, vs, start):
        nonlocal nodes, best
        if len(us) > len(best):
            best = list(zip(us, vs))
        if len(us) >= target_size or nodes >= budget:
            return len(us) >= target_size
        for idx in range(start, m * m):
            if nodes >= budget:
                return False
            nodes += 1
            i, j = divmod(idx, m)
            if (orth[i][j] and not any(orth[i][b] for b in vs)
                    and not any(orth[a][j] for a in us)):
                accepted.append(nodes)
                if dfs(us + [i], vs + [j], idx + 1):
                    return True
        return False

    dfs([], [], 0)
    U = tuple(vectors[i] for i, _ in best)
    V = tuple(vectors[j] for _, j in best)
    return U, V, nodes, accepted


@pytest.mark.parametrize("p,k,n", [(2, 2, 3), (3, 2, 2), (3, 1, 4)])
def test_mv_search_matches_orth_table_search_at_full_budget(p, k, n):
    fam, nodes = mv_search(p, k, n, 6, budget=200_000)
    assert (fam.U, fam.V, nodes) == orth_table_mv_search(p, k, n, 6, 200_000)[:3]


def test_mv_search_node_count_at_budget_edges():
    # the jump books the skipped pairs arithmetically; a budget that ends
    # exactly at, just before or just after an accepted pair is where an
    # off-by-one would show
    accepted = orth_table_mv_search(2, 2, 2, 99, 1000)[3]
    edges = accepted[:4] + accepted[len(accepted) // 2:][:2] + accepted[-2:]
    for a in edges:
        for budget in (a - 1, a, a + 1):
            if budget > 0:
                fam, nodes = mv_search(2, 2, 2, 99, budget=budget)
                ref = orth_table_mv_search(2, 2, 2, 99, budget)[:3]
                assert (fam.U, fam.V, nodes) == ref, budget
    # a scan that ends before its budget: budgets around its full count
    total = orth_table_mv_search(3, 1, 2, 99, 10**6)[2]
    assert total < 10**6
    for budget in (total - 1, total, total + 1):
        fam, nodes = mv_search(3, 1, 2, 99, budget=budget)
        assert (fam.U, fam.V, nodes) == orth_table_mv_search(3, 1, 2, 99, budget)[:3]


def test_mv_search_guard():
    # the q^n x q^n orthogonality table, counted before any vector is listed
    with pytest.raises(GuardExceeded, match=r"^orthogonality table of "
                       r"\(Z/3\)\^12: 531441 x 531441 = \d+ cells exceeds "):
        mv_search(3, 1, 12, 6)
    with pytest.raises(GuardExceeded, match=r"^orthogonality table of \(Z/3\)\^4"):
        mv_search(3, 1, 4, 6, guard=80 * 80)
    assert mv_search(3, 1, 4, 6, guard=81 * 81)[1] == 200_000
