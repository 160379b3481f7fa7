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
)
from ringkakeya.gfp import is_prime
from ringkakeya.selftest import (
    crank_multiplication_bound,
    kron_mixed_product,
    rank_paths_agree,
    rank_product_bound,
)


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
    assert rank_paths_agree(random.Random(1))


def test_kron_examples():
    assert kron(GFpMatrix(5, [[2]]), GFpMatrix(5, [[3]])) == GFpMatrix(5, [[1]])
    assert kron(GFpMatrix.identity(3, 2), GFpMatrix.identity(3, 3)) == \
        GFpMatrix.identity(3, 6)
    with pytest.raises(ValueError):
        kron(GFpMatrix.identity(3, 2), GFpMatrix.identity(5, 2))


def test_kron_mixed_product_identity():
    assert kron_mixed_product(random.Random(2))


def test_crank_examples():
    I2 = GFpMatrix.identity(3, 2)
    assert crank([I2, I2]) == 2
    assert crank([GFpMatrix(2, [[1, 0]]), GFpMatrix(2, [[0, 1]])]) == 2
    with pytest.raises(ValueError):
        crank([GFpMatrix.identity(2, 2), GFpMatrix.identity(2, 3)])


def test_crank_multiplication_bound():
    assert crank_multiplication_bound(random.Random(3))


def test_rank_product_bound():
    assert rank_product_bound(random.Random(4))


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


def test_matrix_shares_canonical_int64_and_reduces_the_rest():
    a = np.array([[0, 1, 4], [3, 2, 0]], dtype=np.int64)
    assert np.shares_memory(GFpMatrix(5, a).a, a)
    assert np.shares_memory(GFpMatrix(5, a).transpose().a, a)
    for data in ([[-1, 5, 12]], np.array([[-1, 5, 12]], dtype=np.int64),
                 np.array([[-1, 5, 12]], dtype=np.int8)):
        M = GFpMatrix(5, data)
        assert M.a.dtype == np.int64 and M.a.tolist() == [[4, 0, 2]]
        assert not np.shares_memory(M.a, data)
    flags = np.array([[True, False], [False, True]])
    M = GFpMatrix(2, flags)
    assert M.a.dtype == np.int64 and M == GFpMatrix.identity(2, 2)


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
    assert rank_rational([]) == rank_rational(np.zeros((3, 0), dtype=np.int64)) == 0
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


def test_overflow_refused():
    p = 2**31 - 1
    # three products of (p-1)^2 sum past 2^63; in int64 they wrap to 2147483646
    with pytest.raises(OverflowError):
        GFpMatrix(p, [[p - 1] * 3]) @ GFpMatrix(p, [[p - 1]] * 3)
    assert (GFpMatrix(p, [[p - 1] * 2]) @ GFpMatrix(p, [[p - 1]] * 2)).a[0, 0] == 2
    big = next(q for q in range(3_037_000_501, 3_037_001_000) if is_prime(q))
    with pytest.raises(OverflowError):
        rank(GFpMatrix(big, [[1, 2], [3, 4]]))
    assert rank(GFpMatrix(p, [[1, 2], [3, 4]])) == 2


# Loop oracles for the echelon kernel: a reduced echelon form with a row
# scan per pivot, and a below-only rank elimination.

def reduced_echelon_oracle(a, p):
    E = a % p
    m, n = E.shape
    R = np.eye(m, dtype=np.int64)
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if E[i, c]), None)
        if piv is None:
            continue
        E[[r, piv]] = E[[piv, r]]
        R[[r, piv]] = R[[piv, r]]
        inv = pow(int(E[r, c]), -1, p)
        E[r] = E[r] * inv % p
        R[r] = R[r] * inv % p
        for i in range(m):
            if i != r and E[i, c]:
                f = int(E[i, c])
                E[i] = (E[i] - f * E[r]) % p
                R[i] = (R[i] - f * R[r]) % p
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return E, pivots, R


def below_only_rank_oracle(a, p):
    A = a % p
    m, n = A.shape
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if A[i, c]), None)
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, p) % p
        A[r + 1:] = (A[r + 1:] - np.outer(A[r + 1:, c], A[r])) % p
        r += 1
        if r == m:
            break
    return r


def nullspace_oracle(a, p):
    E, pivots, _ = reduced_echelon_oracle(a, p)
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(a.shape[1]) if c not in pivot_cols]
    basis = np.zeros((len(free_cols), a.shape[1]), dtype=np.int64)
    for k, fc in enumerate(free_cols):
        basis[k, fc] = 1
        for r, c in pivots:
            basis[k, c] = (-int(E[r, fc])) % p
    return basis


def row_factor_oracle(a, b, p):
    E, pivots, R = reduced_echelon_oracle(a, p)
    C = np.zeros((b.shape[0], a.shape[0]), dtype=np.int64)
    for i in range(b.shape[0]):
        residual = b[i].copy()
        coeff = np.zeros(a.shape[0], dtype=np.int64)
        for r, c in pivots:
            f = int(residual[c])
            if f:
                coeff[r] = f
                residual = (residual - f * E[r]) % p
        assert not residual.any()
        C[i] = coeff @ R % p
    return C


def test_echelon_kernel_against_loop_oracles():
    rng = random.Random(13)
    for _ in range(3000):
        p = rng.choice([2, 3, 5, 7, 11, 13, 181, 191, 46337, 46349, 1048609])
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        if rng.random() < 0.4:
            # low rank, so that pivots are skipped and kernels are large
            inner = rng.randrange(1, 4)
            M = rand_matrix(rng, p, rows, inner) @ rand_matrix(rng, p, inner, cols)
        else:
            M = rand_matrix(rng, p, rows, cols)
            if rng.random() < 0.5:
                M.a[:, rng.randrange(cols)] = 0
        assert rank(M) == below_only_rank_oracle(M.a, p)
        assert np.array_equal(nullspace(M).a, nullspace_oracle(M.a, p))
        X = rand_matrix(rng, p, rng.randrange(1, 5), rows)
        B = X @ M
        assert np.array_equal(solve_row_factor(M, B).a,
                              row_factor_oracle(M.a, B.a, p))
