"""Differential tests: the one pivot product behind the `prime` and
`two-primes` certificates against the two product paths it replaced, kept
here as the reference.

The reference functions are the earlier `certify_prime` (a dense M_S·W
through `GFpMatrix.__matmul__`, compared with the complement-hyperplane
rows of the directions) and `certify_two_primes` for N = p·q (an `einsum`
over the pivot index, compared with H ⊗ the q-side rows, the rows grouped
by pivot direction in a dict).  For three or more primes the product is
checked against M_S·(W_p ⊗ I_m) built with `kron`.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from ringkakeya import (
    BoundReport,
    GFpMatrix,
    RingSpec,
    certify_prime,
    certify_two_primes,
    crt_product,
    full_set,
    incidence_matrix_pk,
    incidence_quotient,
    kron,
    line_matrix,
    rank,
    tangent_construction,
)
from ringkakeya.bounds import (
    _group_rank_sizes, _require_valid, _split_witnesses, fq_bound, squarefree_bound,
)
from ringkakeya.cli import main
from ringkakeya.kakeya import _witness_indices

from conftest import random_full_witness

# (13, 2) and (17, 2) take the GFpMatrix branch: no packed rank above p = 11
PRIME_RINGS = [(2, 1), (3, 1), (7, 1), (2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3),
               (13, 2), (17, 2)]
TWO_PRIME_RINGS = [(6, 1), (15, 1), (6, 2), (10, 2), (15, 2), (21, 2), (10, 3)]


def _ring_id(ring):
    return f"{ring[0]}^{ring[1]}"


def crt_tangent(spec):
    return crt_product([tangent_construction(fs.N, spec.n)
                        for fs in spec.factor_specs], spec)


# ---------------------------------------------------------------- reference

def ref_certify_prime(S):
    spec = S.spec
    _require_valid(S)
    p, n = spec.N, spec.n
    dirs = spec.directions
    A = line_matrix(S) @ incidence_matrix_pk(p, 1, n)
    reps = np.array([d.rep for d in dirs], dtype=np.int64)
    row_identity = np.array_equal(A.a, reps @ spec.points.T % p != 0)
    rank_A, rank_MS = rank(A), rank(line_matrix(S))
    binom = math.comb(p + n - 2, n - 1)
    return BoundReport(
        pipeline="prime", N=spec.N, n=n, set_size=S.size, certified=rank_A,
        closed_form=fq_bound(p, n),
        quantities={
            "rank_MS": rank_MS,
            "rank_MS_W": rank_A,
            "rank_W": rank(incidence_quotient(p, 1, n)),
            "binom_p_plus_n_minus_2": binom,
        },
        checks={
            "row_identity": row_identity,
            "rank_chain": rank_MS >= rank_A,
            "rank_formula_lower_bound": rank_A >= binom,
            "soundness": rank_A <= S.size,
        },
    )


def ref_group_rank_sizes(p, groups, modulus):
    ranks, unions = [], []
    for rows in groups.values():
        ranks.append(rank(GFpMatrix(p, rows)))
        unions.append(int(np.count_nonzero(np.any(np.array(rows), axis=0))))
    ok = all(r >= math.ceil(u / modulus) for r, u in zip(ranks, unions))
    return min(ranks), min(unions), ok


def ref_certify_two_primes(S):
    spec = S.spec
    assert spec.is_square_free and spec.r == 2
    _require_valid(S)
    p, q = spec.primes
    n = spec.n
    spec_p = spec.factor_specs[0]
    dirs = spec.directions
    MS = line_matrix(S)
    prod = GFpMatrix(p, np.einsum(
        "ibj,ba->iaj", MS.a.reshape(len(dirs), p**n, q**n),
        incidence_matrix_pk(p, 1, n).a,
    ).reshape(len(dirs), -1))
    _, comps, ind_q = _split_witnesses(spec, 0, _witness_indices(S))
    hyper = comps @ spec_p.points.T % p != 0
    row_identity = np.array_equal(
        prod.a, (hyper[:, :, None] * ind_q[:, None, :]).reshape(len(dirs), -1)
    )
    q_lines = {}
    for rep, row in zip(map(tuple, comps.tolist()), ind_q):
        q_lines.setdefault(rep, []).append(row)
    certified, rank_MS = rank(prod), rank(MS)
    dim_V = rank(GFpMatrix(p, hyper[np.unique(comps, axis=0, return_index=True)[1]]))
    min_rank_B, _, rank_size_per_c = ref_group_rank_sizes(p, q_lines, q)
    return BoundReport(
        pipeline="two-primes", N=spec.N, n=n, set_size=S.size,
        certified=certified, closed_form=squarefree_bound(spec.N, n),
        quantities={
            "rank_MS": rank_MS,
            "rank_product": certified,
            "dim_V": dim_V,
            "min_rank_B": min_rank_B,
            "tensor_lower_bound": dim_V * min_rank_B,
        },
        checks={
            "row_identity": row_identity,
            "tensor_span_bound": certified >= dim_V * min_rank_B,
            "rank_size_per_direction": rank_size_per_c,
            "rank_chain": rank_MS >= certified,
            "soundness": certified <= S.size,
        },
    )


# -------------------------------------------------------------------- tests

@pytest.mark.parametrize("N,n", PRIME_RINGS, ids=map(_ring_id, PRIME_RINGS))
def test_prime_report_matches_dense_product(N, n):
    spec = RingSpec.make(N, n)
    for S in (full_set(spec), tangent_construction(N, n),
              random_full_witness(spec, N + n)):
        assert certify_prime(S).to_json_dict() == ref_certify_prime(S).to_json_dict()


@pytest.mark.parametrize("N,n", TWO_PRIME_RINGS, ids=map(_ring_id, TWO_PRIME_RINGS))
def test_two_primes_report_matches_einsum_product(N, n):
    spec = RingSpec.make(N, n)
    for S in (full_set(spec), crt_tangent(spec), random_full_witness(spec, N + n)):
        want = ref_certify_two_primes(S).to_json_dict()
        assert certify_two_primes(S).to_json_dict() == want


def test_group_rank_sizes_groups_by_pivot_index():
    # pivot 0: rows 0 and 2, rank 2, union 4; pivot 5: rows 1 and 3, rank 1,
    # union 2; the unions come from packed bits (p = 2) or bytes (p = 3, and
    # p = 13, where the ranks take a GFpMatrix)
    rows = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 0, 1], [1, 1, 0, 0]], dtype=bool)
    pivots = [0, 5, 0, 5]
    for p in (2, 3, 13):
        assert _group_rank_sizes(p, pivots, rows, 2) == (1, 2, True)
        assert _group_rank_sizes(p, pivots, rows, 1) == (1, 2, False)


def test_a_corrupted_pivot_table_fails_the_row_identity(monkeypatch):
    # over (Z/6)^2 the points of F_2^2 serve only the pivot table [<x, y> = 0]:
    # swapping two of its rows gives some pivot line a wrong row sum
    spec = RingSpec.make(6, 2)
    S = full_set(spec)
    assert certify_two_primes(S).passed
    spec_p = spec.factor_specs[0]
    swapped = spec_p.points[[0, 2, 1, 3]]
    monkeypatch.setitem(spec_p.__dict__, "points", swapped)
    with pytest.raises(AssertionError, match="^pivot row identity failed"):
        certify_two_primes(S)


def test_two_primes_builds_no_dense_line_matrix():
    # one int64 copy of the 217 x 1000 line matrix of (Z/10)^3 is 1,736,000
    # bytes; the product is built from its pivot and residual factors
    S = full_set(RingSpec.make(10, 3))
    certify_two_primes(S)  # the ring's cached tables
    tracemalloc.start()
    try:
        assert certify_two_primes(S).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 217 * 1000 * 8


@pytest.mark.parametrize("N,n,want", [(30, 2, 48), (42, 2, 64)])
def test_two_primes_takes_three_primes(N, n, want):
    spec = RingSpec.make(N, n)
    p, m = spec.primes[0], N // spec.primes[0]
    sets = [crt_tangent(spec), full_set(spec), random_full_witness(spec, 1)]
    reports = [certify_two_primes(S) for S in sets]
    assert reports[0].certified == want
    for S, r in zip(sets, reports):
        assert r.passed and r.certified <= S.size
        if spec.num_points <= 900:
            # the batched product against M_S·(W_p ⊗ I_m) built densely
            dense = line_matrix(S) @ kron(incidence_matrix_pk(p, 1, n),
                                          GFpMatrix.identity(p, m**n))
            assert r.quantities["rank_product"] == rank(dense)


def test_two_primes_cli_on_three_primes_and_a_prime(tmp_path, capsys):
    path = tmp_path / "s.json"
    main(["kakeya", "construct", "--N", "30", "--n", "2",
          "--method", "tangent-product", "--out", str(path)])
    capsys.readouterr()
    assert main(["certify", str(path), "--pipeline", "two-primes"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["certified"] == 48 and report["passed"] is True

    main(["kakeya", "construct", "--N", "7", "--n", "2",
          "--method", "tangent", "--out", str(path)])
    capsys.readouterr()
    assert main(["certify", str(path), "--pipeline", "two-primes"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1


def test_prime_rank_w_is_the_closed_form_under_the_line_matrix_guard(tmp_path, capsys):
    # rank_W is rank_formula, not a quotient build, so the 7 x 8 line
    # matrix of the full F_2^3 set is the largest array the guard counts
    path = tmp_path / "f8.json"
    main(["kakeya", "construct", "--N", "2", "--n", "3", "--method", "full",
          "--out", str(path)])
    capsys.readouterr()
    assert main(["certify", str(path), "--pipeline", "prime", "--guard", "56"]) == 0
    assert json.loads(capsys.readouterr().out)["quantities"]["rank_W"] == 4
    assert main(["certify", str(path), "--pipeline", "prime", "--guard", "55"]) == 3
