"""Certificate pipelines: closed forms, soundness, and chain identities."""

import math
from fractions import Fraction

import pytest

from ringkakeya import (
    RingSpec,
    certify_prime,
    certify_prime_power,
    certify_squarefree,
    certify_two_primes,
    crt_product,
    fq_bound,
    full_set,
    min_kakeya_search,
    squarefree_bound,
    tangent_construction,
)

from conftest import random_full_witness


def test_fq_bound_values():
    assert fq_bound(3, 2) == Fraction(81, 25)
    assert fq_bound(2, 1) == Fraction(4, 3)
    # approaches q/2 from above in one dimension
    assert fq_bound(101, 1) > Fraction(101, 2)
    assert fq_bound(101, 1) - Fraction(101, 2) < 1
    with pytest.raises(ValueError):
        fq_bound(1, 2)


def test_squarefree_bound_values():
    assert squarefree_bound(15, 2) == 25
    assert squarefree_bound(6, 2) == Fraction(1296, 225)
    assert float(squarefree_bound(6, 2)) == 5.76
    assert squarefree_bound(7, 3) == fq_bound(7, 3)
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
    for S in (full_set(RingSpec.make(p, n)), tangent_construction(p, n)):
        r = certify_prime(S)
        assert r.passed
        assert r.certified <= S.size
        assert r.certified >= math.comb(p + n - 2, n - 1)


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


def test_certify_squarefree_random_witnesses():
    spec = RingSpec.make(6, 2)
    for seed in range(3):
        S = random_full_witness(spec, seed)
        r = certify_squarefree(S, k=2)
        assert r.passed
        assert r.certified <= S.size


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
    # at k = 1 the direction rows span the whole incidence row space
    assert r.quantities["direction_rows_span_full_rank"]
    assert r.certified == 3


def test_certify_prime_power_z4_squared():
    S = full_set(RingSpec.make(4, 2))
    r = certify_prime_power(S)
    assert r.passed
    assert r.certified == r.quantities["rank_W_pk_n"] == 7
    assert S.size == 16 >= r.certified
    # rows indexed by non-unit vectors are not spanned by direction rows
    assert r.quantities["rank_pattern"] == 6
    assert not r.quantities["direction_rows_span_full_rank"]

    opt, Smin = min_kakeya_search(RingSpec.make(4, 2))
    rmin = certify_prime_power(Smin)
    assert rmin.passed
    assert opt >= rmin.certified


def test_monotone_consistency():
    # the closed-form bound never exceeds any construction's size
    for N in (6, 10, 15):
        spec = RingSpec.make(N, 2)
        sizes = [full_set(spec).size]
        parts = [tangent_construction(p, 2) for p in spec.primes]
        sizes.append(crt_product(parts, spec).size)
        assert squarefree_bound(N, 2) <= min(sizes)


def test_tangent_product_envelope():
    # CRT products of tangent sets stay within the product of the
    # per-factor size envelopes (measured with constant 3)
    for N in (6, 15):
        spec = RingSpec.make(N, 2)
        parts = [tangent_construction(p, 2) for p in spec.primes]
        S = crt_product(parts, spec)
        envelope = 1.0
        for p in spec.primes:
            envelope *= p**2 / 2 + 3 * p
        assert S.size <= envelope


def test_prime_power_guard_refusal():
    from ringkakeya import GuardExceeded

    with pytest.raises(GuardExceeded):
        certify_prime_power(full_set(RingSpec.make(4, 1)), guard=3)


def test_json_value_big_ints():
    from ringkakeya.bounds import _json_value

    assert _json_value(7) == 7
    assert _json_value(2**60) == str(2**60)
    assert _json_value(Fraction(3, 4)) == "3/4"
    assert _json_value(True) is True


def test_json_value_recurses():
    from ringkakeya.bounds import _json_value

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
