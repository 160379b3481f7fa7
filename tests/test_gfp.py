"""Exact linear algebra over F_p."""

import random

import numpy as np
import pytest

from ringkakeya import (
    GFpMatrix,
    RowFactorError,
    crank,
    kron,
    nullspace,
    rank,
    rank_rational,
    solve_row_factor,
    tensor_family_rank_check,
)
from ringkakeya.gfp import rank_generic


def rand_matrix(rng, p, rows, cols):
    return GFpMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def span_size_rank(M):
    """Independent rank oracle: |row span| = p^rank, by exhaustion."""
    span = {(0,) * M.cols}
    for row in M.a:
        new = set(span)
        for v in span:
            for t in range(1, M.p):
                new.add(tuple((np.array(v) + t * row) % M.p))
        span = new
        while True:
            extra = set()
            for v in span:
                for w in list(span):
                    s = tuple((np.array(v) + np.array(w)) % M.p)
                    if s not in span:
                        extra.add(s)
            if not extra:
                break
            span |= extra
    size = len(span)
    r = 0
    while M.p**r < size:
        r += 1
    assert M.p**r == size
    return r


def test_rank_examples():
    assert rank(GFpMatrix.identity(5, 3)) == 3
    assert rank(GFpMatrix.zeros(7, 3, 4)) == 0
    M = GFpMatrix(2, [[1, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 1]])
    assert rank(M) == 3


def test_rank_against_span_oracle():
    rng = random.Random(0)
    for _ in range(30):
        p = rng.choice([2, 3])
        M = rand_matrix(rng, p, rng.randrange(1, 4), rng.randrange(1, 4))
        assert rank(M) == span_size_rank(M)


def test_rank_transpose_and_paths_agree():
    rng = random.Random(1)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        M = rand_matrix(rng, p, 5, 4)
        assert rank(M) == rank(M.transpose()) == rank_generic(M)


def test_kron_examples():
    assert kron(GFpMatrix(5, [[2]]), GFpMatrix(5, [[3]])) == GFpMatrix(5, [[1]])
    assert kron(GFpMatrix.identity(3, 2), GFpMatrix.identity(3, 3)) == \
        GFpMatrix.identity(3, 6)
    with pytest.raises(ValueError):
        kron(GFpMatrix.identity(3, 2), GFpMatrix.identity(5, 2))


def test_kron_mixed_product_identity():
    rng = random.Random(2)
    for _ in range(100):
        A1 = rand_matrix(rng, 3, 2, 2)
        A2 = rand_matrix(rng, 3, 2, 3)
        B1 = rand_matrix(rng, 3, 2, 2)
        B2 = rand_matrix(rng, 3, 3, 2)
        assert kron(A1, A2) @ kron(B1, B2) == kron(A1 @ B1, A2 @ B2)


def test_crank_examples():
    I2 = GFpMatrix.identity(3, 2)
    assert crank([I2, I2]) == 2
    assert crank([GFpMatrix(2, [[1, 0]]), GFpMatrix(2, [[0, 1]])]) == 2
    with pytest.raises(ValueError):
        crank([GFpMatrix.identity(2, 2), GFpMatrix.identity(2, 3)])


def test_crank_multiplication_bound():
    rng = random.Random(3)
    for _ in range(100):
        fam = [rand_matrix(rng, 3, 3, 4) for _ in range(3)]
        H = rand_matrix(rng, 3, 4, 5)
        assert crank(fam) >= crank([A @ H for A in fam])


def test_rank_product_bound():
    rng = random.Random(4)
    for _ in range(100):
        A = rand_matrix(rng, 5, 3, 4)
        B = rand_matrix(rng, 5, 4, 3)
        assert rank(A @ B) <= min(rank(A), rank(B))


def test_solve_row_factor_examples():
    B = GFpMatrix(5, [[1, 2, 3], [4, 0, 1]])
    C = solve_row_factor(GFpMatrix.identity(5, 3), B)
    assert C == B
    A = GFpMatrix(2, [[1, 1], [0, 1]])
    C = solve_row_factor(A, GFpMatrix(2, [[1, 0]]))
    assert C == GFpMatrix(2, [[1, 1]])
    with pytest.raises(RowFactorError):
        solve_row_factor(GFpMatrix(2, [[1, 0]]), GFpMatrix(2, [[0, 1]]))


def test_solve_row_factor_random():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        A = rand_matrix(rng, p, 4, 5)
        X = rand_matrix(rng, p, 3, 4)
        B = X @ A
        C = solve_row_factor(A, B)
        assert C @ A == B


def test_tensor_family_rank_check():
    V = GFpMatrix.identity(2, 2)
    fams = [GFpMatrix.identity(2, 3), GFpMatrix.identity(2, 3)]
    assert tensor_family_rank_check(V, fams)
    assert tensor_family_rank_check(GFpMatrix(3, [[1, 0]]), [GFpMatrix(3, [[1, 1], [0, 1]])])
    dependent = GFpMatrix(3, [[1, 1], [2, 2]])
    with pytest.raises(ValueError):
        tensor_family_rank_check(dependent, fams)


def test_tensor_family_rank_check_random():
    rng = random.Random(6)
    trials = 0
    while trials < 50:
        V = rand_matrix(rng, 3, 2, 4)
        if rank(V) < 2:
            continue
        fams = [rand_matrix(rng, 3, 3, 3) for _ in range(2)]
        assert tensor_family_rank_check(V, fams)
        trials += 1


def test_nullspace():
    rng = random.Random(7)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        M = rand_matrix(rng, p, 3, 5)
        ker = nullspace(M)
        assert ker.rows == M.cols - rank(M)
        for v in ker.a:
            assert not (M.a @ v % p).any()
        assert rank(ker) == ker.rows


def test_rank_rational():
    assert rank_rational([[1, 1], [1, 1]]) == 1
    assert rank_rational([[1, 1], [1, 2]]) == 2
    assert rank_rational(np.eye(4, dtype=np.int64)) == 4
    # rows dependent over F_2 but independent over Q
    assert rank_rational([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 3
    assert rank(GFpMatrix(2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 2


def fraction_rank(data):
    """Reference: rank over Q by elimination in Fraction arithmetic."""
    from fractions import Fraction

    A = [[Fraction(int(x)) for x in row] for row in data]
    m, n = len(A), len(A[0]) if A else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, m):
            f = A[i][c] / A[r][c]
            if f:
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        r += 1
        if r == m:
            break
    return r


def test_rank_rational_against_fraction_elimination():
    rng = random.Random(11)
    for _ in range(300):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        lo, hi = rng.choice([(0, 1), (-2, 2), (-9, 9)])
        # low-rank products and zero columns exercise skipped pivots
        if rng.random() < 0.4:
            inner = rng.randrange(1, 4)
            B = np.array([[rng.randint(lo, hi) for _ in range(inner)]
                          for _ in range(rows)])
            C = np.array([[rng.randint(lo, hi) for _ in range(cols)]
                          for _ in range(inner)])
            data = B @ C
        else:
            data = np.array([[rng.randint(lo, hi) for _ in range(cols)]
                             for _ in range(rows)])
        if rng.random() < 0.3:
            data[:, rng.randrange(cols)] = 0
        assert rank_rational(data) == fraction_rank(data.tolist())
