"""Cyclotomic field arithmetic and rank transfer."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ringkakeya import (
    CycloElement,
    CycloMatrix,
    GFpMatrix,
    RingSpec,
    cyclo_rank,
    dft_matrix,
    minimal_polynomial,
    rank,
    rank_transfer_check,
    zero_pattern,
)


def test_minimal_polynomial_examples():
    assert minimal_polynomial(2, 2) == (1, 0, 1)          # x^2 + 1
    assert minimal_polynomial(3, 1) == (1, 1, 1)          # x^2 + x + 1
    assert minimal_polynomial(2, 3) == (1, 0, 0, 0, 1)    # x^4 + 1
    assert minimal_polynomial(5, 1) == (1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        minimal_polynomial(4, 1)


def test_gamma_order():
    for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 3)]:
        q = p**k
        g = CycloElement.gamma_power(p, k, 1)
        acc = CycloElement.one(p, k)
        for i in range(1, q):
            acc = acc * g
            assert acc == CycloElement.gamma_power(p, k, i)
            if i < q:
                # primitive: gamma^i != 1 for 0 < i < q
                assert acc != CycloElement.one(p, k)
        assert acc * g == CycloElement.one(p, k)


def test_inverse_random():
    rng = random.Random(0)
    for _ in range(60):
        p, k = rng.choice([(2, 2), (3, 1), (3, 2), (5, 1)])
        coeffs = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                  for _ in range((p - 1) * p ** (k - 1))]
        x = CycloElement(p, k, coeffs)
        if x.is_zero():
            continue
        assert x * x.inverse() == CycloElement.one(p, k)


def test_cyclo_rank_examples():
    p, k = 2, 2
    one = CycloElement.one(p, k)
    g = CycloElement.gamma_power(p, k, 1)
    eye = CycloMatrix.from_rational(p, k, np.eye(3, dtype=int))
    assert cyclo_rank(eye) == 3
    assert cyclo_rank(CycloMatrix(p, k, [[one, g], [g, -one]])) == 1
    assert cyclo_rank(CycloMatrix(p, k, [[one, one], [one, g]])) == 2


def test_cyclo_rank_against_float_svd():
    # independent oracle: numerical rank via numpy on the complex embedding
    rng = random.Random(1)
    for _ in range(60):
        p, k = rng.choice([(2, 1), (2, 2), (3, 1)])
        q = p**k
        size = rng.randrange(1, 5)
        exps = [[rng.randrange(-1, q) for _ in range(size)] for _ in range(size)]
        entries = [
            [
                CycloElement.zero(p, k) if e < 0
                else CycloElement.gamma_power(p, k, e)
                for e in row
            ]
            for row in exps
        ]
        M = CycloMatrix(p, k, entries)
        C = np.array(
            [
                [0 if e < 0 else np.exp(2j * np.pi * e / q) for e in row]
                for row in exps
            ]
        )
        num_rank = int(np.linalg.matrix_rank(C, tol=1e-9))
        assert cyclo_rank(M) == num_rank


def test_zero_pattern():
    p, k = 2, 2
    g = CycloElement.gamma_power(p, k, 1)
    z = CycloElement.zero(p, k)
    one = CycloElement.one(p, k)
    M = CycloMatrix(p, k, [[g, z], [one, g * g * g]])
    assert zero_pattern(M) == GFpMatrix(2, [[1, 0], [1, 1]])
    assert zero_pattern(CycloMatrix(p, k, [[z, z]])) == GFpMatrix(2, [[0, 0]])


def test_rank_transfer_hand_example():
    p, k = 2, 2
    one = CycloElement.one(p, k)
    g = CycloElement.gamma_power(p, k, 1)
    M = CycloMatrix(p, k, [[one, g], [g, -one]])
    assert cyclo_rank(M) == 1
    assert rank(zero_pattern(M)) == 1
    assert rank_transfer_check(M)


def test_rank_transfer_gamma_scaled_identity():
    p, k = 3, 1
    z = CycloElement.zero(p, k)
    diag = [
        [CycloElement.gamma_power(p, k, i + 1) if i == j else z
         for j in range(3)]
        for i in range(3)
    ]
    M = CycloMatrix(p, k, diag)
    assert cyclo_rank(M) == 3 == rank(zero_pattern(M))
    assert rank_transfer_check(M)


def test_dft_pattern_has_no_zeros():
    F = dft_matrix(RingSpec.make(4, 1))
    assert zero_pattern(F).a.all()


def test_rank_transfer_rejects_bad_entries():
    p, k = 2, 2
    two = CycloElement.from_rational(p, k, 2)
    with pytest.raises(ValueError):
        rank_transfer_check(CycloMatrix(p, k, [[two]]))


def test_rank_transfer_random_200():
    rng = random.Random(2)
    for _ in range(200):
        p, k = rng.choice([(2, 1), (3, 1), (2, 2), (3, 2)])
        q = p**k
        size = rng.randrange(1, 7)
        entries = [
            [
                CycloElement.zero(p, k) if rng.random() < 0.3
                else CycloElement.gamma_power(p, k, rng.randrange(q))
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        assert rank_transfer_check(CycloMatrix(p, k, entries))


def test_dft_small_examples():
    spec = RingSpec.make(2, 1)
    F = dft_matrix(spec)
    one = CycloElement.one(2, 1)
    assert F.entries[0] == [one, one]
    assert F.entries[1] == [one, -one]

    spec3 = RingSpec.make(3, 1)
    F3 = dft_matrix(spec3)
    g = CycloElement.gamma_power(3, 1, 1)
    for i in range(3):
        for j in range(3):
            assert F3.entries[i][j] == CycloElement.gamma_power(3, 1, i * j)
    assert g * g * g == CycloElement.one(3, 1)


def test_dft_whole_line_row_product():
    # over Z/2 the only line is the whole ring: indicator times F is (2, 0)
    spec = RingSpec.make(2, 1)
    F = dft_matrix(spec)
    row = [F.entries[0][j] + F.entries[1][j] for j in range(2)]
    assert row[0] == CycloElement.from_rational(2, 1, 2)
    assert row[1].is_zero()


@pytest.mark.parametrize("q,n", [(4, 2), (3, 2), (8, 1)])
def test_dft_line_row_formula_exhaustive(q, n):
    # indicator of a line times the character table: zero at columns not
    # orthogonal to the direction, q times a root of unity elsewhere
    from ringkakeya import (
        Line,
        enumerate_directions,
        enumerate_points,
        line_points,
        point_index,
    )

    spec = RingSpec.make(q, n)
    p, k = spec.factors[0]
    F = dft_matrix(spec)
    pts = enumerate_points(spec)
    for d in enumerate_directions(spec):
        for base in pts:
            line = Line.through(base, d, spec)
            acc = [CycloElement.zero(p, k) for _ in pts]
            for pt in line_points(line, spec):
                t = point_index(pt, spec)
                for j in range(len(pts)):
                    acc[j] = acc[j] + F.entries[t][j]
            for j, y in enumerate(pts):
                ip_dir = sum(a * b for a, b in zip(d.rep, y)) % q
                ip_base = sum(a * b for a, b in zip(line.base, y)) % q
                if ip_dir:
                    assert acc[j].is_zero()
                else:
                    assert acc[j] == CycloElement.gamma_power(p, k, ip_base) * q


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (4, 1), (2, 3), (9, 1), (3, 2), (8, 1), (27, 1)])
def test_dft_full_rank(q, n):
    spec = RingSpec.make(q, n)
    assert cyclo_rank(dft_matrix(spec)) == q**n


def test_dft_full_rank_size_81():
    spec = RingSpec.make(3, 4)
    assert cyclo_rank(dft_matrix(spec)) == 81


def test_reduction_matrix_matches_gamma_powers():
    from ringkakeya.cyclo import reduction_matrix

    for p, k in [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1), (5, 2), (2, 5)]:
        R = reduction_matrix(p, k)
        assert R.shape == (p**k, (p - 1) * p ** (k - 1))
        for e in range(p**k):
            ref = CycloElement.gamma_power(p, k, e).coeffs
            assert R[e].tolist() == [int(c) for c in ref]


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
        # gamma^q = 1 maps to omega^q = 1: the image respects the reduction
        x = CycloElement.gamma_power(p, k, 1)
        y = CycloElement(p, k, [rng.randrange(-3, 4) for _ in range(phi)])
        img = lambda e: int(reduce_mod(np.array([int(c) for c in e.coeffs]), ell, omega))
        assert img(x * y) == img(x) * img(y) % ell


def _all_lines(spec):
    from ringkakeya import Line, enumerate_directions, enumerate_points

    return [Line.through(base, d, spec)
            for d in enumerate_directions(spec) for base in enumerate_points(spec)]


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (8, 1), (9, 1), (2, 3)])
def test_integer_dft_rows_match_cyclo_sums(q, n):
    # the integer product behind the prime-power certificate, on every line
    # (every direction and every base), against sums of CycloElement entries
    # of the character table, and the integer closed form of each row
    from ringkakeya import enumerate_points, line_points, point_index
    from ringkakeya.cyclo import dft_product, reduction_matrix

    spec = RingSpec.make(q, n)
    p, k = spec.factors[0]
    F = dft_matrix(spec)
    lines = _all_lines(spec)
    A = np.zeros((len(lines), q**n), dtype=np.int64)
    for i, line in enumerate(lines):
        for pt in line_points(line, spec):
            A[i, point_index(pt, spec)] = 1
    coeffs = dft_product(A, spec)
    for i, line in enumerate(lines):
        for j in range(q**n):
            acc = CycloElement.zero(p, k)
            for t in np.nonzero(A[i])[0]:
                acc = acc + F.entries[t][j]
            assert coeffs[i, j].tolist() == [int(c) for c in acc.coeffs]

    pts = np.array(enumerate_points(spec))
    reps = np.array([line.direction.rep for line in lines])
    bases = np.array([line.base for line in lines])
    want = q * reduction_matrix(p, k)[bases @ pts.T % q]
    want *= (reps @ pts.T % q == 0)[..., None]
    assert np.array_equal(coeffs, want)
    with pytest.raises(ValueError):
        dft_product(2 * A, spec)


def _random_witness_set(spec, rng):
    from ringkakeya import KakeyaSet, Line, enumerate_directions, line_points

    witness, points = {}, set()
    for d in enumerate_directions(spec):
        base = tuple(rng.randrange(spec.N) for _ in range(spec.n))
        witness[d] = Line.through(base, d, spec)
        points.update(line_points(witness[d], spec))
    return KakeyaSet(spec=spec, points=frozenset(points), witness=witness)


@pytest.mark.parametrize("q,n,seed", [(4, 2, 0), (4, 2, 1), (4, 2, 2), (9, 1, 0),
                                      (9, 1, 1), (2, 3, 0), (2, 3, 1), (2, 3, 2)])
def test_rank_cyclo_against_exact_rank(q, n, seed):
    from ringkakeya import certify_prime_power, line_matrix
    from ringkakeya.bounds import _rank_cyclo
    from ringkakeya.cyclo import _bareiss_rank, dft_product

    spec = RingSpec.make(q, n)
    p, k = spec.factors[0]
    S = _random_witness_set(spec, random.Random(seed))
    report = certify_prime_power(S)
    MS = line_matrix(S, char=p)
    M = CycloMatrix.from_rational(p, k, MS.a) @ dft_matrix(spec)
    M = M.scale(Fraction(1, q))
    exact = _bareiss_rank(M)
    assert report.quantities["rank_cyclo"] == exact == cyclo_rank(M)
    # a wrong upper bound can never be met: the search gives up loudly
    with pytest.raises(AssertionError):
        _rank_cyclo(dft_product(MS.a, spec), p, k, exact + 1)


def test_cyclo_rank_denominator_divisible_by_ell():
    from ringkakeya.cyclo import split_prime

    p, k = 2, 2
    ell, _ = split_prime(p, k)
    tiny = CycloElement.from_rational(p, k, Fraction(1, ell))
    one = CycloElement.one(p, k)
    g = CycloElement.gamma_power(p, k, 1)
    # 1/ell has no image in F_ell, so the next prime certifies the rank
    assert cyclo_rank(CycloMatrix(p, k, [[tiny, g], [one, g * (ell + 1) * tiny]])) == 2
    assert cyclo_rank(CycloMatrix(p, k, [[tiny, g * tiny], [one, g]])) == 1
