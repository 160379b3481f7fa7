"""Exact linear algebra over F_p."""

import random
import tracemalloc

import numpy as np
import pytest

from ringkakeya import (
    GFpMatrix,
    RingSpec,
    RowFactorError,
    certify_prime,
    certify_squarefree,
    certify_two_primes,
    crt_product,
    kron,
    rank,
    rank_rational,
    solve_row_factor,
    tangent_construction,
)
from ringkakeya import bounds, gfp
from ringkakeya.errors import GuardExceeded
from ringkakeya.gfp import PackedRows, _echelon, _pack_rows, is_prime
from ringkakeya.selftest import (
    crank_multiplication_bound,
    kron_mixed_product,
    packed_rank_matches_echelon,
    rank_cases,
    rank_paths_agree,
    rank_product_bound,
    row_factors_match_per_pair,
)

from conftest import reduced_echelon_oracle, row_factor_oracle


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


def test_is_prime_matches_a_trial_division_loop():
    def trial(m):
        d = 2
        while d * d <= m:
            if m % d == 0:
                return False
            d += 1
        return m >= 2

    assert [is_prime(m) for m in range(10**4)] == [trial(m) for m in range(10**4)]


def test_is_prime_rejects_a_composite_whose_cofactor_it_cannot_settle(deadline):
    from ringkakeya import GuardExceeded

    m61 = 2**61 - 1
    assert not is_prime(2 * m61) and not is_prime(3 * m61)
    with pytest.raises(GuardExceeded, match=f"^factoring {m61}: "):
        is_prime(m61)


def test_rank_examples():
    assert rank(GFpMatrix.identity(5, 3)) == 3
    assert rank(GFpMatrix(7, np.zeros((3, 4)))) == 0
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


@pytest.mark.parametrize("rows,cols", [(300, 1000), (1000, 300), (640, 641)])
def test_gf2_packed_rank_matches_echelon_large(rows, cols):
    gen = np.random.default_rng(rows + cols)
    full = gen.integers(0, 2, (rows, cols))
    low = gen.integers(0, 2, (rows, 150)) @ gen.integers(0, 2, (150, cols)) % 2
    for a in (full, low):
        assert rank(GFpMatrix(2, a)) == _echelon(a, 2)
    assert rank(GFpMatrix(2, low)) <= 150


def _dense(M):
    """M's int64 entries: M.a of a GFpMatrix, or PackedRows unpacked field
    by field (to_bytes raises OverflowError on a row wider than M.cols)."""
    if not isinstance(M, PackedRows):
        return M.a
    if M.p == 2:
        size = -(-M.cols // 8)
        rows = [np.unpackbits(np.frombuffer(x.to_bytes(size, "little"), np.uint8),
                              bitorder="little")[:M.cols] for x in M.ints]
    else:
        rows = [np.frombuffer(x.to_bytes(M.cols, "little"), np.uint8) for x in M.ints]
    return np.array(rows, dtype=np.int64).reshape(M.rows, M.cols)


def test_gf2_rank_matches_echelon_on_certificate_matrices(monkeypatch):
    # every GF(2) matrix the crt-10^3 certificates rank: the square-free
    # family (868 x 1155), its D ⊗ L0 family (868 x 550), the two-primes
    # product (217 x 1000) and the small V and q-line groups; the families
    # arrive as PackedRows, and the rank taken on them is checked
    seen = []

    def recording_rank(M):
        got = rank(M)
        if M.p == 2:
            seen.append((_dense(M), got))
        return got

    monkeypatch.setattr(bounds, "rank", recording_rank)
    spec = RingSpec.make(10, 3)
    S = crt_product([tangent_construction(2, 3), tangent_construction(5, 3)], spec)
    certify_squarefree(S)
    certify_two_primes(S)
    assert {(868, 1155), (868, 550), (217, 1000)} <= {a.shape for a, _ in seen}
    for a, got in seen:
        assert got == rank(GFpMatrix(2, a)) == _echelon(a, 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gf2_rank_matches_echelon_on_sparse_kron_family(seed):
    # stacked kron(C, v) members, sparse like the square-free families
    gen = np.random.default_rng(seed)
    a = np.vstack([np.kron(gen.random((4, 12)) < 0.2, gen.random((1, 40)) < 0.1)
                   for _ in range(120)]).astype(np.int64)
    assert rank(GFpMatrix(2, a)) == _echelon(a, 2)


@pytest.mark.parametrize("tops", [[62], [63], [64], [65], [126], [127], [128],
                                  [129], [62, 63, 64, 65, 126, 127, 128, 129]])
def test_gf2_rank_matches_echelon_at_word_boundary_leading_bits(tops):
    # each row's leading bit (its last non-zero column) is one of tops
    gen = np.random.default_rng(tops[0] * len(tops))
    for rows in (5, 40, 200):
        a = gen.integers(0, 2, (rows, 140))
        top = gen.choice(tops, rows)
        a[np.arange(140) > top[:, None]] = 0
        a[np.arange(rows), top] = 1
        assert rank(GFpMatrix(2, a)) == _echelon(a, 2)


def test_packed_rank_matches_echelon(deadline):
    assert packed_rank_matches_echelon(random.Random(19))


def test_row_factors_match_per_pair():
    assert row_factors_match_per_pair(random.Random(23))


def test_gf2_packed_rank_matches_echelon(deadline):
    # the XOR basis at p = 2 against the echelon pivot count and the
    # below-only oracle, at widths on each side of the byte and word boundaries
    gen = np.random.default_rng(17)
    for cols in (1, 7, 8, 9, 63, 64, 65, 127, 128, 129):
        for a in rank_cases(gen, 2, cols):
            want = _echelon(a, 2)
            assert rank(GFpMatrix(2, a)) == below_only_rank_oracle(a, 2) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_packed_rows_rank_like_their_matrix(deadline, p):
    # rank takes PackedRows as it takes the GFpMatrix they pack, on the
    # selftest's cases, 0-row and 0-column shapes among them
    gen = np.random.default_rng(p)
    for cols in (1, 7, 8, 9, 63, 64, 65, 129):
        for a in rank_cases(gen, p, cols):
            packed = PackedRows(p, a.shape[1], _pack_rows(a, p))
            assert rank(packed) == rank(GFpMatrix(p, a))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("cols", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129])
def test_packed_rank_matches_echelon_and_oracle(deadline, p, cols):
    gen = np.random.default_rng(p * 1000 + cols)
    for a in rank_cases(gen, p, cols):
        want = _echelon(a, p)
        assert rank(GFpMatrix(p, a)) == below_only_rank_oracle(a, p) == want


def test_odd_p_rank_matches_echelon_on_certificate_matrices(monkeypatch, deadline):
    # every odd-p matrix that the prime certificate on tangent 7^3 and the
    # two-primes and square-free certificates on the CRT tangent products
    # over (Z/15)^2 and (Z/21)^2 rank: among them the 57 x 343 line matrix
    # and the (144, 357) square-free family, which arrives as PackedRows
    seen = []

    def recording_rank(M):
        got = rank(M)
        if M.p != 2:
            seen.append((M.p, _dense(M), got))
        return got

    monkeypatch.setattr(bounds, "rank", recording_rank)
    certify_prime(tangent_construction(7, 3))
    for N, (p, q) in ((15, (3, 5)), (21, (3, 7))):
        S = crt_product([tangent_construction(p, 2), tangent_construction(q, 2)],
                        RingSpec.make(N, 2))
        certify_two_primes(S)
        certify_squarefree(S)
    assert {(7, (57, 343)), (3, (144, 357))} <= {(p, a.shape) for p, a, _ in seen}
    for p, a, got in seen:
        assert got == rank(GFpMatrix(p, a)) == _echelon(a, p)


def test_rank_paths_by_characteristic(monkeypatch):
    # p = 2 takes the XOR basis, 3 <= p <= 11 the packed basis, p >= 13
    # the echelon kernel
    calls = []

    def spy(name):
        kernel = getattr(gfp, name)

        def recording(*args):
            calls.append(name)
            return kernel(*args)
        return recording

    for name in ("_gf2_basis_size", "_packed_basis_size", "_echelon"):
        monkeypatch.setattr(gfp, name, spy(name))
    for p in (2, 3, 11, 13, 17):
        assert rank(GFpMatrix.identity(p, 3)) == 3
    assert calls == ["_gf2_basis_size", "_packed_basis_size", "_packed_basis_size",
                     "_echelon", "_echelon"]


def test_kron_examples():
    assert kron(GFpMatrix(5, [[2]]), GFpMatrix(5, [[3]])) == GFpMatrix(5, [[1]])
    assert kron(GFpMatrix.identity(3, 2), GFpMatrix.identity(3, 3)) == \
        GFpMatrix.identity(3, 6)
    with pytest.raises(ValueError):
        kron(GFpMatrix.identity(3, 2), GFpMatrix.identity(5, 2))


def test_kron_refused_before_anything_is_built():
    # 64 x 64 by 64 x 64 would be 16,777,216 int64 cells, 128 MiB
    A = GFpMatrix.identity(3, 64)
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match=r"^Kronecker product over F_3: 4096 x "
                           r"4096 = 16777216 cells exceeds the guard of 16000000$"):
            kron(A, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_kron_mixed_product_identity():
    assert kron_mixed_product(random.Random(2))


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
    # a 0-row source factors a zero target, a 0-row target has a 0-row factor
    assert solve_row_factor(GFpMatrix(5, np.zeros((0, 3))),
                            GFpMatrix(5, np.zeros((2, 3)))).a.shape == (2, 0)
    assert solve_row_factor(GFpMatrix(5, np.ones((4, 3))),
                            GFpMatrix(5, np.zeros((0, 3)))).a.shape == (0, 4)
    with pytest.raises(RowFactorError):
        solve_row_factor(GFpMatrix(5, np.zeros((0, 3))), GFpMatrix(5, np.ones((2, 3))))


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


# A below-only rank elimination with a row scan per pivot, the loop
# oracle for the echelon kernel's rank; the row factor oracle is in conftest.

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
        X = rand_matrix(rng, p, rng.randrange(1, 5), rows)
        B = X @ M
        assert np.array_equal(solve_row_factor(M, B).a,
                              row_factor_oracle(M.a, B.a, p))
    # stacks of 2 to 6 members at every working-type boundary prime: members
    # of different rank, wide members that reach full row rank before their
    # last column, all-zero members and 0-row stacks
    seen = set()
    for p in (2, 11, 13, 181, 191, 46337, 46349, 1048609):
        def rand(r, c):
            return np.array([[rng.randrange(p) for _ in range(c)] for _ in range(r)],
                            dtype=np.int64).reshape(r, c)

        for _ in range(40):
            L, rows, cols = rng.randrange(2, 7), rng.randrange(0, 7), rng.randrange(1, 9)
            k = rng.randrange(0, 4)
            A = np.stack([rand(rows, inner) @ rand(inner, cols) % p for inner in
                          (rng.randrange(min(rows, cols) + 1) for _ in range(L))])
            B = np.stack([rand(k, rows) @ a % p for a in A])
            C = gfp._row_factors(A, B, p)
            assert C.shape == (L, k, rows) and C.dtype == np.int64
            for a, b, c in zip(A, B, C):
                assert np.array_equal(c, row_factor_oracle(a, b, p))
                pivots = reduced_echelon_oracle(a, p)[1]
                if rows and len(pivots) == rows and pivots[-1][1] < cols - 1:
                    seen.add("full row rank early")
                if rows and not a.any():
                    seen.add("zero member")
            if not rows:
                seen.add("0-row stack")
            if len({below_only_rank_oracle(a, p) for a in A}) > 1:
                seen.add("ranks differ")
        # the middle member of five has a target row outside its row space
        A = np.stack([rand(3, 4) for _ in range(5)])
        A[2, :, 1:] = 0
        B = np.stack([rand(2, 3) @ a % p for a in A])
        B[2, 1, 1] = 1
        with pytest.raises(RowFactorError, match="row 1 of target 2 ") as exc:
            gfp._row_factors(A, B, p)
        assert exc.value.member == 2
    assert seen == {"full row rank early", "zero member", "0-row stack", "ranks differ"}
