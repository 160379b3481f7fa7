"""Z[γ] coefficient arrays, cyclotomic rank and rank transfer."""

import random
import tracemalloc

import numpy as np
import pytest

from ringkakeya import (
    GFpMatrix,
    GuardExceeded,
    RingSpec,
    dft_product,
    rank,
    rank_cyclo,
    reduction_matrix,
)
from ringkakeya.selftest import dft_full_rank, dft_line_row_formula, rank_transfer_random

from conftest import random_witness_set


def _gamma_matrix(exps, p, k):
    """Coefficient array of the matrix with entries γ^e, or 0 where e < 0."""
    R = reduction_matrix(p, k)
    zero = np.zeros_like(R[0])
    return np.array([[zero if e < 0 else R[e] for e in row] for row in exps])


def _complex_rank(exps, q):
    C = np.array([[0 if e < 0 else np.exp(2j * np.pi * e / q) for e in row]
                  for row in exps])
    return int(np.linalg.matrix_rank(C, tol=1e-9))


def _table(spec):
    """The character table of spec as a Z[γ] coefficient array."""
    return dft_product(np.eye(spec.num_points, dtype=np.int64), spec)


def test_minimal_polynomial_examples():
    # γ^φ = R[φ] in the basis 1, ..., γ^{φ-1}, so m(x) = x^φ - R[φ]·(1, ..., x^{φ-1})
    def minimal_polynomial(p, k):
        R = reduction_matrix(p, k)
        return tuple(-R[R.shape[1]]) + (1,)

    assert minimal_polynomial(2, 2) == (1, 0, 1)          # x^2 + 1
    assert minimal_polynomial(3, 1) == (1, 1, 1)          # x^2 + x + 1
    assert minimal_polynomial(2, 3) == (1, 0, 0, 0, 1)    # x^4 + 1
    assert minimal_polynomial(5, 1) == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        reduction_matrix(4, 1)


def test_gamma_order():
    for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 3)]:
        q = p**k
        R = reduction_matrix(p, k)
        phi = R.shape[1]
        # multiplication by γ: row e is γ·γ^e = γ^{e+1}
        T = R[1 : phi + 1]
        eye = np.eye(phi, dtype=np.int64)
        acc = eye
        for i in range(1, q):
            acc = acc @ T
            assert np.array_equal(acc[0], R[i])
            # primitive: γ^i != 1 for 0 < i < q
            assert not np.array_equal(acc, eye)
        assert np.array_equal(acc @ T, eye)
        assert not np.array_equal(np.linalg.matrix_power(T, q // p), eye)


def test_cyclo_rank_examples():
    p, k = 2, 2
    eye = _gamma_matrix([[0, -1, -1], [-1, 0, -1], [-1, -1, 0]], p, k)
    assert rank_cyclo(eye, p, k) == 3
    # -1 = γ^2 over Q(i)
    assert rank_cyclo(_gamma_matrix([[0, 1], [1, 2]], p, k), p, k) == 1
    assert rank_cyclo(_gamma_matrix([[0, 0], [0, 1]], p, k), p, k) == 2


def test_cyclo_rank_against_float_svd():
    # independent oracle: numerical rank via numpy on the complex embedding
    rng = random.Random(1)
    for _ in range(60):
        p, k = rng.choice([(2, 1), (2, 2), (3, 1)])
        q = p**k
        size = rng.randrange(1, 5)
        exps = [[rng.randrange(-1, q) for _ in range(size)] for _ in range(size)]
        assert rank_cyclo(_gamma_matrix(exps, p, k), p, k) == _complex_rank(exps, q)
    # row b is γ^s times row a: the F_ℓ image is not full, so the largest
    # F_ℓ image rank over `_prime_count` primes decides
    for _ in range(40):
        p, k = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
        q = p**k
        size = rng.randrange(2, 6)
        exps = [[rng.randrange(-1, q) for _ in range(size)] for _ in range(size)]
        a, b = rng.sample(range(size), 2)
        s = rng.randrange(q)
        exps[b] = [-1 if e < 0 else (e + s) % q for e in exps[a]]
        got = rank_cyclo(_gamma_matrix(exps, p, k), p, k)
        assert got == _complex_rank(exps, q) < size


def test_zero_pattern():
    p, k = 2, 2
    M = _gamma_matrix([[1, -1], [0, 3]], p, k)
    assert GFpMatrix(p, M.any(-1)) == GFpMatrix(2, [[1, 0], [1, 1]])
    assert GFpMatrix(p, _gamma_matrix([[-1, -1]], p, k).any(-1)) == GFpMatrix(2, [[0, 0]])


def test_rank_transfer_hand_example():
    p, k = 2, 2
    M = _gamma_matrix([[0, 1], [1, 2]], p, k)
    assert rank_cyclo(M, p, k) == 1
    assert rank(GFpMatrix(p, M.any(-1))) == 1


def test_rank_transfer_gamma_scaled_identity():
    p, k = 3, 1
    M = _gamma_matrix([[(i + 1) % 3 if i == j else -1 for j in range(3)]
                       for i in range(3)], p, k)
    assert rank_cyclo(M, p, k) == 3 == rank(GFpMatrix(p, M.any(-1)))


def test_dft_pattern_has_no_zeros():
    assert _table(RingSpec.make(4, 1)).any(-1).all()


def test_rank_transfer_random_200():
    assert rank_transfer_random(random.Random(2))


def test_dft_small_examples():
    F = _table(RingSpec.make(2, 1))
    assert F.tolist() == [[[1], [1]], [[1], [-1]]]

    F3 = _table(RingSpec.make(3, 1))
    R = reduction_matrix(3, 1)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(F3[i, j], R[i * j % 3])
    # 1 + γ + γ^2 = 0
    assert not (R[0] + R[1] + R[2]).any()


def test_dft_whole_line_row_product():
    # over Z/2 the only line is the whole ring: indicator times F is (2, 0)
    spec = RingSpec.make(2, 1)
    assert dft_product(np.array([[1, 1]]), spec).tolist() == [[[2], [0]]]


def test_dft_product_requires_prime_power():
    with pytest.raises(ValueError, match="prime-power modulus"):
        dft_product(np.eye(6, dtype=np.int64), RingSpec.make(6, 1))


def test_dft_product_refused_before_anything_is_built():
    # 300 rows over (Z/16)^3: a 300·16 x 4096 exponent histogram of
    # 19,660,800 int64 cells, 150 MiB
    A = np.zeros((300, 4096), dtype=np.int64)
    spec = RingSpec.make(16, 3)
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match=r"^DFT exponent histogram of \(Z/16\)\^3: "
                           r"4800 x 4096 = 19660800 cells exceeds the guard of 16000000$"):
            dft_product(A, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    # one row fits a guard of exactly its 16 x 4096 cells
    assert dft_product(A[:1], spec, guard=16 * 4096).shape == (1, 4096, 8)


@pytest.mark.parametrize("q,n", [(4, 2), (3, 2), (8, 1)])
def test_dft_line_row_formula_exhaustive(q, n):
    assert dft_line_row_formula(q, n)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (4, 1), (2, 3), (9, 1), (3, 2), (8, 1), (27, 1)])
def test_dft_full_rank(q, n):
    assert dft_full_rank(q, n)


def test_dft_full_rank_size_81():
    assert dft_full_rank(3, 4)


def test_reduction_matrix_matches_gamma_powers():
    for p, k in [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1), (5, 2), (2, 5)]:
        q = p**k
        phi = (p - 1) * p ** (k - 1)
        # m(x) = 1 + x^{p^{k-1}} + ... + x^{(p-1) p^{k-1}}, monic of degree φ
        m = [0] * (phi + 1)
        for j in range(p):
            m[j * p ** (k - 1)] = 1
        R = reduction_matrix(p, k)
        assert R.shape == (q, phi)
        for e in range(q):
            # x^e mod m(x) by long division
            rem = [0] * e + [1]
            while len(rem) > phi:
                top = rem.pop()
                for i in range(phi):
                    rem[len(rem) - phi + i] -= top * m[i]
            rem += [0] * (phi - len(rem))
            assert R[e].tolist() == rem


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (3, 3), (5, 2), (7, 1)])
def test_split_prime(p, k):
    from ringkakeya.cyclo import ELL_FLOOR, split_prime
    from ringkakeya.gfp import is_prime

    q = p**k
    ell, omega = split_prime(p, k)
    assert is_prime(ell) and ell % q == 1 and ell > ELL_FLOOR
    # the least such prime
    assert not any(is_prime(x) for x in range(ELL_FLOOR + 1, ell) if x % q == 1)
    # omega has order exactly q
    assert pow(omega, q, ell) == 1 and pow(omega, q // p, ell) != 1
    nxt, omega2 = split_prime(p, k, ell)
    assert nxt > ell and is_prime(nxt) and nxt % q == 1
    assert not any(is_prime(x) for x in range(ell + 1, nxt) if x % q == 1)
    assert pow(omega2, q, nxt) == 1 and pow(omega2, q // p, nxt) != 1


def test_reduce_mod_is_evaluation_at_omega():
    from ringkakeya.cyclo import reduce_mod, split_prime

    rng = random.Random(3)
    for p, k in [(2, 2), (3, 1), (3, 2), (2, 3)]:
        ell, omega = split_prime(p, k)
        phi = (p - 1) * p ** (k - 1)
        coeffs = np.array([[rng.randrange(-50, 50) for _ in range(phi)]
                           for _ in range(20)], dtype=np.int64)
        got = reduce_mod(coeffs, ell, omega)
        for row, value in zip(coeffs.tolist(), got.tolist()):
            assert value == sum(c * pow(omega, i, ell) for i, c in enumerate(row)) % ell
        # γ^q = 1 maps to ω^q = 1: the image respects the reduction, so
        # γ·y (y·T, T the multiplication-by-γ matrix) maps to ω times y's image
        y = np.array([rng.randrange(-3, 4) for _ in range(phi)], dtype=np.int64)
        gy = y @ reduction_matrix(p, k)[1 : phi + 1]
        assert int(reduce_mod(gy, ell, omega)) == omega * int(reduce_mod(y, ell, omega)) % ell


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (8, 1), (9, 1), (2, 3)])
def test_integer_dft_rows_match_cyclo_sums(q, n):
    # the integer product behind the prime-power certificate, on every line
    assert dft_line_row_formula(q, n)
    with pytest.raises(ValueError):
        dft_product(2 * np.eye(q**n, dtype=np.int64), RingSpec.make(q, n))


def test_prime_count_outlasts_primes_that_divide_every_minor():
    from ringkakeya import rank_rational
    from ringkakeya.cyclo import split_prime

    # ℓ₁ divides the full minor of the first, ℓ₁ and ℓ₂ that of the second,
    # so one and two of their images lose rank
    l1, _ = split_prime(2, 1)
    l2, _ = split_prime(2, 1, l1)
    assert rank_rational([[1, 0], [0, l1]]) == 2
    assert rank_rational([[l1 * l2]]) == 1
    # over Q(i): ℓ·γ^0, and γ - ω, whose norm ω² + 1 is a multiple of ℓ
    ell, omega = split_prime(2, 2)
    assert rank_cyclo(np.array([[[ell, 0]]]), 2, 2) == 1
    assert rank_cyclo(np.array([[[-omega, 1]]]), 2, 2) == 1
    # squares of these entries pass 2^63: the bound is summed without wrapping
    assert rank_rational([[2**40, 1], [1, 0]]) == 2
    assert rank_rational([[l1 * 2**32]]) == 1
    assert rank_rational([[2**70, 2**70 + 1], [1, 1]]) == 2


@pytest.mark.parametrize("q,n,seed", [(4, 2, 0), (4, 2, 1), (4, 2, 2), (9, 1, 0),
                                      (9, 1, 1), (2, 3, 0), (2, 3, 1), (2, 3, 2)])
def test_rank_cyclo_against_exact_rank(q, n, seed):
    from ringkakeya import line_matrix

    spec = RingSpec.make(q, n)
    p, k = spec.factors[0]
    S = random_witness_set(spec, random.Random(seed))
    coeffs = dft_product(line_matrix(S).a, spec)
    # independent oracle: the complex embedding γ = exp(2πi/q)
    gamma = np.exp(2j * np.pi * np.arange(coeffs.shape[-1]) / q)
    exact = np.linalg.matrix_rank(coeffs @ gamma, tol=1e-9)
    assert rank_cyclo(coeffs, p, k) == exact
    # a target above the rank is never met: every prime is tried, and the
    # largest image rank, the rank itself, comes back
    assert rank_cyclo(coeffs, p, k, target=exact + 1) == exact
    assert rank_cyclo(coeffs, p, k, target=exact) == exact
