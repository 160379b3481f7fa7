"""Certificate pipelines: closed forms, soundness, and chain identities."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ringkakeya import (
    GFpMatrix,
    RingSpec,
    certify_prime,
    certify_prime_power,
    certify_squarefree,
    certify_two_primes,
    crt_product,
    fq_bound,
    full_set,
    kron,
    min_kakeya_search,
    rank,
    squarefree_bound,
    tangent_construction,
)
from ringkakeya import bounds, gfp
from ringkakeya.bounds import _tensor_rows_rank
from ringkakeya.gfp import PackedRows, _echelon
from ringkakeya.incidence import complement_indicator, incidence_quotient
from ringkakeya.selftest import (
    crt_product_size,
    fq_bound_values,
    prime_pipeline_sound,
    squarefree_bound_values,
)

from conftest import random_full_witness, random_witness_set


def test_fq_bound_values():
    assert fq_bound_values()
    with pytest.raises(ValueError):
        fq_bound(1, 2)


def test_squarefree_bound_values():
    assert squarefree_bound_values()
    with pytest.raises(ValueError):
        squarefree_bound(4, 2)


def test_certify_prime_examples():
    r = certify_prime(full_set(RingSpec.make(3, 2)))
    assert r.passed and r.certified >= 3

    T = tangent_construction(5, 2)
    r5 = certify_prime(T)
    assert r5.passed and 5 <= r5.certified <= T.size

    r2 = certify_prime(full_set(RingSpec.make(2, 2)))
    assert r2.passed and r2.certified >= 2


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
def test_certify_prime_soundness(p, n):
    assert prime_pipeline_sound(p, n)


def test_certify_prime_rejects_wrong_kind():
    with pytest.raises(ValueError):
        certify_prime(full_set(RingSpec.make(6, 1)))


def test_certify_two_primes_full():
    S = full_set(RingSpec.make(6, 2))
    r = certify_two_primes(S)
    assert r.passed
    assert r.certified <= 36
    assert r.certified >= r.quantities["dim_V"] * r.quantities["min_rank_B"]


def test_certify_two_primes_random_witnesses():
    spec = RingSpec.make(6, 2)
    for seed in range(20):
        S = random_full_witness(spec, seed)
        r = certify_two_primes(S)
        assert r.checks["row_identity"]
        assert r.passed


def test_certify_two_primes_constructions():
    spec = RingSpec.make(15, 2)
    S = crt_product(
        [tangent_construction(3, 2), tangent_construction(5, 2)], spec
    )
    r = certify_two_primes(S)
    assert r.passed and r.certified <= S.size
    assert r.closed_form == 25
    # V: the complement-hyperplane indicators of the p-side directions
    spec_p = spec.factor_specs[0]
    V = GFpMatrix(3, [complement_indicator(c.rep, spec_p)
                      for c in spec_p.directions])
    assert r.quantities["dim_V"] == rank(V)


def test_certify_squarefree_chain():
    S = full_set(RingSpec.make(6, 2))
    r = certify_squarefree(S, k=2)
    assert r.passed
    q = r.quantities
    assert q["m"] == 3
    assert q["Delta_n_m_minus_1"] == 6
    assert q["delta_n_kp1_minus_1"] == 4
    assert q["crank_D"] == 4  # stacked point evaluations are injective
    assert q["final_rhs"] == Fraction(108, 25)
    assert q["crank_family"] <= 6 * S.size
    assert r.certified == math.ceil(q["crank_family"] / 6)
    assert r.certified <= S.size


def test_certify_squarefree_pivot_override():
    S = full_set(RingSpec.make(6, 2))
    r = certify_squarefree(S, k=3, pivot_prime=3)
    assert r.passed
    assert r.quantities["pivot_prime"] == 3
    with pytest.raises(ValueError):
        certify_squarefree(S, k=3)  # default pivot 2 does not divide 3
    with pytest.raises(ValueError):
        certify_squarefree(S, pivot_prime=5)


def test_certify_squarefree_n15_default_k():
    # default k is the pivot prime (3 for N = 15)
    spec = RingSpec.make(15, 2)
    S = crt_product(
        [tangent_construction(3, 2), tangent_construction(5, 2)], spec
    )
    r = certify_squarefree(S)
    assert r.passed
    assert r.quantities["k"] == 3 and r.quantities["pivot_prime"] == 3
    assert r.certified <= S.size


def test_certify_squarefree_three_primes():
    # N = 30 exercises a residual factor that is itself composite
    S = full_set(RingSpec.make(30, 2))
    r = certify_squarefree(S, k=2)
    assert r.passed
    assert r.quantities["pivot_prime"] == 2
    assert r.certified <= S.size


def test_certify_squarefree_prime_delegates():
    S = full_set(RingSpec.make(5, 2))
    r = certify_squarefree(S)
    assert r.pipeline == "prime"
    assert r.passed


def test_certify_squarefree_prime_checks_k_and_pivot():
    # k and the pivot prime are checked before the prime report is built
    T = tangent_construction(7, 2)
    for k in (5, -3, 0):
        with pytest.raises(ValueError, match="multiple of the pivot prime 7"):
            certify_squarefree(T, k=k)
    with pytest.raises(ValueError, match="not a prime factor of 7"):
        certify_squarefree(T, pivot_prime=3)
    want = certify_prime(T).to_json_dict()
    for k in (None, 7, 14):
        assert certify_squarefree(T, k=k).to_json_dict() == want


def test_certify_squarefree_random_witnesses():
    spec = RingSpec.make(6, 2)
    for seed in range(3):
        S = random_full_witness(spec, seed)
        r = certify_squarefree(S, k=2)
        assert r.passed
        assert r.certified <= S.size


def _check_tensor_rows_rank(p, blocks, which, rows):
    members = [kron(GFpMatrix(p, blocks[b]), GFpMatrix(p, [v])) for b, v in zip(which, rows)]
    family = np.vstack([m.a for m in members])
    want = _echelon(family, p)
    assert _tensor_rows_rank(p, blocks, which, rows) == rank(GFpMatrix(p, family)) == want


# kept widths |acols|·|ys| of 7 to 129 fields, on each side of 8, 64 and 128
FULL_WIDTHS = [(1, 7), (2, 4), (3, 3), (1, 9), (7, 9), (8, 8), (5, 13), (3, 21),
               (9, 15), (8, 16), (4, 32), (11, 12), (1, 129), (129, 1), (13, 10)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_tensor_rows_rank_matches_full_width_crank(p, deadline):
    # equal-shape blocks with all-zero columns, repeated indices and a last
    # block never used, and rows with zeros, so the compact family drops
    # columns; trial 28 zeroes a used block, and the last trial drops every
    # column.  Then FULL_WIDTHS, where every column is kept.  A packed row
    # whose fields carried would loop in the rank, so the deadline applies
    gen = np.random.default_rng(p)
    for trial in range(30):
        cols, width = int(gen.integers(1, 7)), int(gen.integers(1, 9))
        blocks = gen.integers(0, p, (int(gen.integers(2, 6)), int(gen.integers(1, 4)), cols))
        blocks[:, :, gen.random(cols) < 0.5] = 0
        which = gen.integers(0, len(blocks) - 1, int(gen.integers(1, 6)))
        rows = (gen.random((len(which), width)) < 0.4).astype(np.int64)
        if trial == 28:
            blocks[which[0]] = 0
        if trial == 29:
            rows[:] = 0
        _check_tensor_rows_rank(p, blocks, which, rows)
    for cols, width in FULL_WIDTHS:
        blocks = gen.integers(0, p, (4, 3, cols)) * (gen.random((4, 3, cols)) < 0.5)
        which = gen.integers(0, 4, 12)
        blocks[which[0], 0] = 1
        rows = (gen.random((12, width)) < 0.3).astype(np.int64)
        rows[0] = 1
        _check_tensor_rows_rank(p, blocks, which, rows)


@pytest.mark.parametrize("p,packed", [(11, True), (13, False)])
def test_tensor_rows_rank_builds_int64_family_only_above_11(monkeypatch, p, packed):
    # p = 11 hands rank its packed rows; p = 13 has no packed path, so the
    # family is one int64 array, which rank takes to _echelon
    seen, echelons = [], []
    real_echelon = gfp._echelon

    def recording_rank(M):
        seen.append(M)
        return rank(M)

    def recording_echelon(a, q):
        echelons.append(a.shape)
        return real_echelon(a, q)

    monkeypatch.setattr(bounds, "rank", recording_rank)
    monkeypatch.setattr(gfp, "_echelon", recording_echelon)
    gen = np.random.default_rng(p)
    blocks = gen.integers(0, p, (3, 2, 5))
    which = np.array([0, 2, 2, 0])
    rows = (gen.random((4, 6)) < 0.5).astype(np.int64)
    rows[0] = 1
    _tensor_rows_rank(p, blocks, which, rows)
    (M,) = seen
    if packed:
        assert isinstance(M, PackedRows) and (M.rows, M.cols) == (8, 30)
        assert echelons == []
    else:
        assert isinstance(M, GFpMatrix) and M.a.dtype == np.int64
        assert M.a.shape == (8, 30) and echelons == [(8, 30)]
    monkeypatch.undo()
    _check_tensor_rows_rank(p, blocks, which, rows)


def test_certify_squarefree_crt_10_cubed():
    # the benchmark's square-free frontier: both families have 868 rows and
    # 80 x 125 and 10 x 125 columns, of which 21 x 55 and 10 x 55 can be
    # non-zero
    spec = RingSpec.make(10, 3)
    S = crt_product(
        [tangent_construction(2, 3), tangent_construction(5, 3)], spec
    )
    r = certify_squarefree(S)
    assert r.passed
    assert r.quantities["crank_family"] == 609
    assert r.quantities["crank_D_tensor_L0"] == 290
    assert r.certified == 61


# the whole square-free report of the per-direction builder that the
# stacked tables replaced, at the default k and pivot; every check passes
SQUAREFREE_CHECKS = [
    "decode_then_eval", "crank_size", "crank_multiplication", "crank_tensor",
    "stacked_point_eval_rank", "rank_size_factor", "union_is_kakeya_bound",
    "final_inequality", "soundness",
]
PINNED_SQUAREFREE = {
    (15, 2, "tangent-product"): (119, 5, "25/1", {
        "k": 3, "m": 5, "pivot_prime": 3, "crank_family": 72,
        "Delta_n_m_minus_1": 15, "delta_n_kp1_minus_1": 9, "crank_D": 9,
        "crank_D_tensor_L0": 54, "min_crank_L0": 6, "final_rhs": "125/9"}),
    (10, 3, "tangent-product"): (440, 61, "1000000/19683", {
        "k": 2, "m": 3, "pivot_prime": 2, "crank_family": 609,
        "Delta_n_m_minus_1": 10, "delta_n_kp1_minus_1": 10, "crank_D": 10,
        "crank_D_tensor_L0": 290, "min_crank_L0": 29, "final_rhs": "31250/729"}),
    (6, 3, "full"): (216, 28, "1728/125", {
        "k": 2, "m": 3, "pivot_prime": 2, "crank_family": 273,
        "Delta_n_m_minus_1": 10, "delta_n_kp1_minus_1": 10, "crank_D": 10,
        "crank_D_tensor_L0": 130, "min_crank_L0": 13, "final_rhs": "486/25"}),
}


@pytest.mark.parametrize("ring", PINNED_SQUAREFREE, ids=lambda r: f"{r[0]}^{r[1]}-{r[2]}")
def test_certify_squarefree_pinned_reports(ring):
    N, n, method = ring
    spec = RingSpec.make(N, n)
    S = full_set(spec) if method == "full" else crt_product(
        [tangent_construction(p, n) for p in spec.primes], spec)
    size, certified, closed_form, quantities = PINNED_SQUAREFREE[ring]
    assert certify_squarefree(S).to_json_dict() == {
        "pipeline": "square-free", "N": N, "n": n, "set_size": size,
        "certified": certified, "closed_form": closed_form,
        "quantities": quantities, "checks": dict.fromkeys(SQUAREFREE_CHECKS, True),
        "passed": True,
    }


# q, n, witness seed (None: the full set) -> set_size, certified = rank W,
# rank_cyclo (the first F_ℓ image rank that reaches rank W)
PINNED_PRIME_POWER = {
    (4, 2, None): (16, 7, 10),
    (8, 2, None): (64, 15, 22),
    (9, 2, None): (81, 13, 17),
    (16, 2, None): (256, 31, 46),
    (9, 2, 1): (61, 13, 17),
}


@pytest.mark.parametrize("ring", PINNED_PRIME_POWER,
                         ids=lambda r: f"{r[0]}^{r[1]}-{'full' if r[2] is None else r[2]}")
def test_certify_prime_power_pinned_reports(ring):
    q, n, seed = ring
    spec = RingSpec.make(q, n)
    S = full_set(spec) if seed is None else random_witness_set(spec, random.Random(seed))
    size, certified, rank_c = PINNED_PRIME_POWER[ring]
    assert certify_prime_power(S).to_json_dict() == {
        "pipeline": "prime-power", "N": q, "n": n, "set_size": size,
        "certified": certified, "closed_form": None,
        "quantities": {"rank_W_pk_n": certified, "rank_cyclo": rank_c},
        "checks": {"dft_row_formula": True, "rank_transfer": True, "soundness": True},
        "passed": True,
    }


def test_certify_prime_power_n1():
    S = full_set(RingSpec.make(4, 1))
    r = certify_prime_power(S)
    assert r.passed
    assert r.quantities["rank_W_pk_n"] == 3
    assert S.size == 4 >= 3


def test_certify_prime_power_k1_consistency():
    S = full_set(RingSpec.make(2, 2))
    r = certify_prime_power(S)
    assert r.passed
    assert r.certified == r.quantities["rank_W_pk_n"] == 3


def test_certify_prime_power_z4_squared():
    S = full_set(RingSpec.make(4, 2))
    r = certify_prime_power(S)
    assert r.passed
    assert r.certified == r.quantities["rank_W_pk_n"] == 7
    assert S.size == 16 >= r.certified

    opt, Smin = min_kakeya_search(RingSpec.make(4, 2))
    rmin = certify_prime_power(Smin)
    assert rmin.passed
    assert opt >= rmin.certified


@pytest.mark.parametrize("q,n", [(4, 2), (25, 1), (27, 1), (8, 2), (9, 2),
                                 (4, 3), (16, 2), (8, 3)])
def test_certify_prime_power_proves_rank_w(q, n):
    # the sub-progression rows at p^j·b reach every row of W, not only the
    # direction rows, so the re-verified image rank covers rank(W)
    spec = RingSpec.make(q, n)
    p, k = spec.factors[0]
    rank_w = rank(incidence_quotient(p, k, n))
    sets = [full_set(spec)] + [random_witness_set(spec, random.Random(seed))
                               for seed in range(3)]
    if (q, n) == (4, 2):
        sets.append(min_kakeya_search(spec)[1])
    for S in sets:
        r = certify_prime_power(S)
        assert r.passed, r.checks
        assert r.certified == rank_w <= r.quantities["rank_cyclo"]


def test_monotone_consistency():
    # the closed-form bound never exceeds any construction's size
    for N in (6, 10, 15):
        spec = RingSpec.make(N, 2)
        sizes = [full_set(spec).size]
        parts = [tangent_construction(p, 2) for p in spec.primes]
        sizes.append(crt_product(parts, spec).size)
        assert squarefree_bound(N, 2) <= min(sizes)


def test_tangent_product_envelope():
    # CRT products of tangent sets over (Z/6)^2 and (Z/15)^2 stay within the
    # product of the per-factor size envelopes
    assert crt_product_size()


def test_prime_power_guard_refusal():
    from ringkakeya import GuardExceeded

    with pytest.raises(GuardExceeded):
        certify_prime_power(full_set(RingSpec.make(4, 1)), guard=3)
    # (Z/4)^2: 10 unit-orbit rows x 4 points x 16
    with pytest.raises(GuardExceeded, match=r"^DFT exponent histogram of "
                       r"\(Z/4\)\^2: 40 x 16 "):
        certify_prime_power(full_set(RingSpec.make(4, 2)), guard=300)


def test_json_value_big_ints():
    from ringkakeya.errors import _json_value

    assert _json_value(7) == 7
    assert _json_value(2**60) == str(2**60)
    assert _json_value(Fraction(3, 4)) == "3/4"
    assert _json_value(True) is True


def test_json_value_recurses():
    from ringkakeya.errors import _json_value

    data = {"a": [2**60, (Fraction(1, 2), None)], "b": 1.5, "c": "x"}
    assert _json_value(data) == {
        "a": [str(2**60), ["1/2", None]], "b": 1.5, "c": "x"}


def test_reports_serialize():
    r = certify_squarefree(full_set(RingSpec.make(6, 2)), k=2)
    d = r.to_json_dict()
    assert d["passed"] is True
    assert d["pipeline"] == "square-free"
    assert d["quantities"]["final_rhs"] == "108/25"
    assert isinstance(d["checks"], dict)

    r2 = certify_prime_power(full_set(RingSpec.make(4, 1)))
    d2 = r2.to_json_dict()
    assert d2["closed_form"] is None
    assert d2["certified"] == 3


@pytest.mark.parametrize("certify,N,n,guard,message", [
    (certify_prime, 3, 2, 10, r"line matrix of \(Z/3\)\^2: 4 x 9 "),
    (certify_two_primes, 6, 2, 10, r"line matrix of \(Z/6\)\^2: 12 x 36 "),
    (certify_squarefree, 6, 2, 10,
     r"stacked decoding family over \(Z/6\)\^2 at k = 2: "),
], ids=["prime-lines", "two-primes", "square-free"])
def test_guard_refusals_name_their_builder(certify, N, n, guard, message):
    from ringkakeya import GuardExceeded

    with pytest.raises(GuardExceeded, match="^" + message):
        certify(full_set(RingSpec.make(N, n)), guard=guard)


@pytest.mark.parametrize("certify,N,n,cells", [
    (certify_prime, 3, 2, 4 * 9),
    (certify_two_primes, 6, 2, 12 * 36),
], ids=["prime", "two-primes"])
def test_pivot_product_guard_is_the_line_matrix(certify, N, n, cells):
    # the product is taken on W_p's distinct columns, so neither it nor its
    # table outgrows the line matrix: the line matrix's cells are enough
    from ringkakeya import GuardExceeded

    S = full_set(RingSpec.make(N, n))
    assert certify(S, guard=cells).passed
    with pytest.raises(GuardExceeded, match=rf"^line matrix of \(Z/{N}\)\^{n}: "):
        certify(S, guard=cells - 1)
