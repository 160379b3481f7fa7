"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every expected value is either an exact closed form checked
against an independent computation or a quantity computed twice by
different routes.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from ringkakeya import (
    GFpMatrix,
    RingSpec,
    certify_prime_power,
    certify_two_primes,
    crt_product,
    enumerate_directions,
    full_set,
    incidence_matrix,
    incidence_matrix_pk,
    kron,
    line_matrix,
    line_points,
    line_split,
    min_kakeya_search,
    point_index,
    rank,
    squarefree_bound,
    tangent_construction,
    verify,
)
from ringkakeya.incidence import complement_indicator
from ringkakeya.selftest import (
    crank_multiplication_bound,
    crank_tensor_bound,
    decode_then_evaluate,
    hasse_shift_identity,
    kron_mixed_product,
    line_action,
    power_product_size,
    rank_transfer_random,
    sz_multiplicity_sweep,
    tangent_within_envelope,
)

from conftest import random_full_witness


def _report(num, budget, elapsed, detail):
    print(f"PASS criterion {num}: {detail} ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget


def test_criterion_01_rank_formula():
    t0 = time.monotonic()
    results = {}
    for p in (2, 3, 5, 7):
        for n in (2, 3):
            W = incidence_matrix(p, n)
            expected = math.comb(p + n - 2, n - 1) + 1
            got = rank(W)
            assert got == expected, (p, n, got, expected)
            results[(p, n)] = got
    assert W.a.shape == (343, 343)
    _report(1, 10, time.monotonic() - t0,
            f"incidence rank formula exact on 8 grids, largest 343x343, "
            f"ranks {sorted(results.values())}")


def test_criterion_02_line_action_exhaustive():
    t0 = time.monotonic()
    total = 0
    for p, n in [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]:
        # line_action also checks that there are this many lines
        assert line_action(p, n), (p, n)
        total += (p**n - 1) // (p - 1) * p ** (n - 1)
    _report(2, 30, time.monotonic() - t0,
            f"line-action identity exact on all {total} lines across 5 spaces")


def test_criterion_03_tangent_construction():
    t0 = time.monotonic()
    sizes = {}
    for p in (3, 5, 7, 11, 13):
        for n in (2, 3):
            T = tangent_construction(p, n)
            assert tangent_within_envelope(T), (p, n, T.size)
            sizes[(p, n)] = T.size
    _report(3, 30, time.monotonic() - t0,
            f"tangent sets valid and within size bound for 10 cases, "
            f"e.g. |K(13,3)| = {sizes[(13, 3)]}")


def test_criterion_04_min_kakeya_oracle():
    t0 = time.monotonic()
    opt, S = min_kakeya_search(RingSpec.make(3, 2))
    assert opt >= math.ceil(Fraction(81, 25))
    assert math.ceil(Fraction(81, 25)) == 4
    assert opt >= math.comb(3, 1) == 3
    assert verify(S)[0] and S.size == opt
    _report(4, 5, time.monotonic() - t0,
            f"exhaustive optimum over 3^4 witness choices: {opt} >= 4")


def _constructions_15_2():
    spec = RingSpec.make(15, 2)
    t3, t5 = tangent_construction(3, 2), tangent_construction(5, 2)
    f3, f5 = full_set(RingSpec.make(3, 2)), full_set(RingSpec.make(5, 2))
    return [
        ("full", full_set(spec)),
        ("tangent-product", crt_product([t3, t5], spec)),
        ("tangent3 x full5", crt_product([t3, f5], spec)),
        ("full3 x tangent5", crt_product([f3, t5], spec)),
    ]


def test_criterion_05_squarefree_bound_instance():
    t0 = time.monotonic()
    assert squarefree_bound(15, 2) == 25
    details = []
    for name, S in _constructions_15_2():
        assert verify(S)[0]
        assert S.size >= 25, (name, S.size)
        r = certify_two_primes(S)
        assert r.passed
        assert r.certified <= S.size
        details.append(f"{name}: |S|={S.size}, certified {r.certified}")
    _report(5, 60, time.monotonic() - t0,
            "bound(15,2) = 25 exactly; " + "; ".join(details))


def test_criterion_06_two_prime_row_identity():
    t0 = time.monotonic()
    spec = RingSpec.make(6, 2)
    spec2, spec3 = spec.factor_specs()
    W2 = incidence_matrix(2, 2)
    K = kron(W2, GFpMatrix.identity(2, 9))
    sets = [full_set(spec)] + [random_full_witness(spec, seed)
                               for seed in range(20)]
    for S in sets:
        assert verify(S)[0]
        MS = line_matrix(S, char=2)
        prod = MS @ K
        for i, d in enumerate(enumerate_directions(spec)):
            Lp, Lq = line_split(S.witness[d], spec)
            ind_q = np.zeros(spec3.num_points, dtype=np.int64)
            ind_q[spec3.crt_order[point_index(line_points(Lq, spec3), spec3)]] = 1
            expected = np.kron(
                complement_indicator(d.components[0], spec2), ind_q
            ) % 2
            assert np.array_equal(prod.a[i], expected), (i, d.rep)
    _report(6, 60, time.monotonic() - t0,
            f"tensor row identity exact for full set and 20 random witness "
            f"assignments ({len(sets) * 12} rows)")


def test_criterion_07_prime_power_reduction():
    t0 = time.monotonic()
    assert rank(incidence_matrix_pk(2, 2, 1)) == 3
    opt1, _ = min_kakeya_search(RingSpec.make(4, 1))
    assert opt1 == 4 >= 3

    spec = RingSpec.make(4, 2)
    rank_w42 = rank(incidence_matrix_pk(2, 2, 2))
    r_full = certify_prime_power(full_set(spec))
    assert r_full.passed
    assert r_full.quantities["rank_W_pk_n"] == rank_w42
    assert full_set(spec).size >= rank_w42

    opt2, Smin = min_kakeya_search(spec)
    r_min = certify_prime_power(Smin)
    assert r_min.passed
    assert opt2 >= rank_w42
    _report(7, 120, time.monotonic() - t0,
            f"rank W(4,1) = 3 <= 4 = min |S|; n=2: rank W(4,2) = {rank_w42} "
            f"(recorded), full 16 and optimum {opt2} both certified")


def test_criterion_08_rank_transfer_200():
    t0 = time.monotonic()
    assert rank_transfer_random(random.Random(8))
    _report(8, 60, time.monotonic() - t0,
            "cyclotomic rank >= F_p pattern rank on 200 random matrices, "
            "orders 2, 3, 4, 9")


def test_criterion_09_decoding_matrix():
    t0 = time.monotonic()
    assert decode_then_evaluate()
    _report(9, 30, time.monotonic() - t0,
            "decode-then-evaluate identity exact on 6 lines x 16 cubics; "
            "stacked evaluation rank 4")


def test_criterion_10_hasse_multiplicity_suite():
    t0 = time.monotonic()
    assert hasse_shift_identity(random.Random(10))
    assert sz_multiplicity_sweep()
    _report(10, 60, time.monotonic() - t0,
            "shift identity on 500 random instances; degree-2 sweep over 728 "
            "polynomials, bound tight at xy (6 = 2*3)")


def test_criterion_11_kron_crank_suite():
    t0 = time.monotonic()
    rng = random.Random(11)
    assert kron_mixed_product(rng)
    assert crank_multiplication_bound(rng)
    assert crank_tensor_bound(rng)
    _report(11, 30, time.monotonic() - t0,
            "mixed product, crank-multiplication and crank-tensor bounds hold "
            "on 100 randomized instances each")


def test_criterion_12_cartesian_powers():
    t0 = time.monotonic()
    S1 = full_set(RingSpec.make(6, 1))
    S2 = crt_product(
        [tangent_construction(2, 2), tangent_construction(3, 2)],
        RingSpec.make(6, 2),
    )
    assert power_product_size(S1) and power_product_size(S2)
    assert S1.size**2 == 36
    _report(12, 60, time.monotonic() - t0,
            f"power products valid; sizes {S1.size**2} = 6^2 and "
            f"{S2.size**2} = {S2.size}^2 exactly")
