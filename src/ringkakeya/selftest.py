"""Named property suites over every module, runnable from the CLI.

Each suite returns (check name, passed) pairs and is deterministic under a
fixed seed; the seed only varies the randomized instances.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np

from . import (
    Direction,
    EvalMapSpec,
    GFpMatrix,
    GFpPoly,
    Line,
    RingSpec,
    crank,
    crt_product,
    dft_product,
    dim_homog,
    dim_leq,
    enumerate_directions,
    enumerate_points,
    eval_matrix,
    full_set,
    hasse_derivative,
    incidence_matrix,
    incidence_matrix_pk,
    index_point,
    kron,
    line_matrix,
    line_points,
    line_split,
    nullspace,
    point_index,
    rank,
    rank_cyclo,
    rank_rational,
    rank_transfer_check,
    reduction_matrix,
    tangent_construction,
    verify,
)
from .gfp import rank_generic
from .kakeya import greedy_independent_lines, power_product
from .polys import monomials_homog, monomials_leq


def _random_gfp(rng: random.Random, p: int, rows: int, cols: int) -> GFpMatrix:
    return GFpMatrix(
        p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    )


def suite_ring(seed: int = 0):
    checks = []
    for N, n in [(6, 1), (10, 1), (15, 1), (4, 2), (9, 1), (6, 2), (5, 2)]:
        spec = RingSpec.make(N, n)
        ok = all(
            index_point(point_index(pt, spec), spec) == pt
            for pt in enumerate_points(spec)
        )
        checks.append((f"point_index_bijection_N{N}_n{n}", ok))
    for N, n in [(6, 1), (6, 2), (15, 1), (15, 2)]:
        spec = RingSpec.make(N, n)
        dirs = enumerate_directions(spec)
        classes = set()
        for vec in product(range(N), repeat=n):
            try:
                classes.add(Direction.from_vector(vec, spec))
            except ValueError:
                continue
        checks.append(
            (f"direction_classes_N{N}_n{n}",
             set(dirs) == classes and len(dirs) == len(set(dirs)))
        )
    for N in (6, 15):
        spec = RingSpec.make(N, 1)
        specs = spec.factor_specs()
        ok = True
        for d in enumerate_directions(spec):
            for a in range(N):
                line = Line.through((a,), d, spec)
                parts = line_split(line, spec)
                pts = set(line_points(line, spec))
                prod_pts = set()
                for combo in product(*[line_points(pl, fs)
                                       for pl, fs in zip(parts, specs)]):
                    from .rings import crt_combine
                    prod_pts.add((crt_combine([c[0] for c in combo], spec),))
                if pts != prod_pts:
                    ok = False
        checks.append((f"line_crt_product_N{N}", ok))
    return checks


def suite_gfp(seed: int = 0):
    rng = random.Random(seed)
    checks = []
    ok = True
    for _ in range(100):
        A = _random_gfp(rng, 3, 3, 4)
        B = _random_gfp(rng, 3, 4, 5)
        if rank(A @ B) > min(rank(A), rank(B)):
            ok = False
    checks.append(("rank_product_bound", ok))

    ok = True
    for _ in range(100):
        A1 = _random_gfp(rng, 5, 2, 2)
        A2 = _random_gfp(rng, 5, 2, 3)
        B1 = _random_gfp(rng, 5, 2, 2)
        B2 = _random_gfp(rng, 5, 3, 2)
        if kron(A1, A2) @ kron(B1, B2) != kron(A1 @ B1, A2 @ B2):
            ok = False
    checks.append(("kron_mixed_product", ok))

    ok = True
    for _ in range(100):
        fam = [_random_gfp(rng, 3, 3, 4) for _ in range(3)]
        H = _random_gfp(rng, 3, 4, 5)
        if crank(fam) < crank([A @ H for A in fam]):
            ok = False
    checks.append(("crank_multiplication_bound", ok))

    ok = True
    for _ in range(100):
        n_fam, m_fam = 2, 2
        A = [_random_gfp(rng, 3, 2, 3) for _ in range(n_fam)]
        B = {i: [_random_gfp(rng, 3, 2, 2) for _ in range(m_fam)]
             for i in range(n_fam)}
        r1 = crank(A)
        r2 = min(crank(B[i]) for i in range(n_fam))
        members = [kron(A[i], Bij) for i in range(n_fam) for Bij in B[i]]
        if crank(members) < r1 * r2:
            ok = False
    checks.append(("crank_tensor_bound", ok))

    ok = True
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        M = _random_gfp(rng, p, 4, 5)
        if rank(M) != rank_generic(M) or rank(M) != rank(M.transpose()):
            ok = False
    checks.append(("rank_paths_agree", ok))
    return checks


def suite_cyclotomic(seed: int = 0):
    rng = random.Random(seed)
    checks = []
    ok = True
    for _ in range(200):
        p, k = rng.choice([(2, 1), (3, 1), (2, 2), (3, 2)])
        q = p**k
        R = reduction_matrix(p, k)
        zero = np.zeros_like(R[0])
        size = rng.randrange(2, 7)
        coeffs = np.array([
            [zero if rng.random() < 0.3 else R[rng.randrange(q)]
             for _ in range(size)]
            for _ in range(size)
        ])
        if not rank_transfer_check(coeffs, p, k):
            ok = False
    checks.append(("rank_transfer_random", ok))

    for q, n in [(2, 1), (2, 2), (3, 1), (4, 1), (4, 2), (2, 3), (3, 2)]:
        spec = RingSpec.make(q, n)
        p, k = spec.factors[0]
        R = reduction_matrix(p, k)
        zero = np.zeros_like(R[0])
        pts = enumerate_points(spec)
        lines = [Line.through(base, d, spec)
                 for d in enumerate_directions(spec) for base in pts]
        A = np.zeros((len(lines), len(pts)), dtype=np.int64)
        for i, line in enumerate(lines):
            for pt in line_points(line, spec):
                A[i, point_index(pt, spec)] = 1
        coeffs = dft_product(A, spec)
        ok = True
        for i, line in enumerate(lines):
            for j, y in enumerate(pts):
                # the sum over the line of γ^{<t, y>}, and its closed form
                acc = sum(R[sum(a * b for a, b in zip(t, y)) % q]
                          for t in line_points(line, spec))
                ip_d = sum(a * b for a, b in zip(line.direction.rep, y)) % q
                ip_b = sum(a * b for a, b in zip(line.base, y)) % q
                want = zero if ip_d else q * R[ip_b]
                if not (np.array_equal(acc, want)
                        and np.array_equal(coeffs[i, j], want)):
                    ok = False
        checks.append((f"dft_line_row_formula_q{q}_n{n}", ok))

    for q, n in [(2, 2), (3, 1), (4, 1), (2, 3), (3, 2), (8, 1), (9, 1)]:
        spec = RingSpec.make(q, n)
        p, k = spec.factors[0]
        F = dft_product(np.eye(q**n, dtype=np.int64), spec)
        checks.append((f"dft_full_rank_q{q}_n{n}", rank_cyclo(F, p, k) == q**n))
    return checks


def _random_poly(rng: random.Random, p: int, n: int, deg: int) -> GFpPoly:
    coeffs = {}
    for exp in monomials_leq(n, deg):
        coeffs[exp] = rng.randrange(p)
    return GFpPoly(p, n, coeffs)


def suite_polyspace(seed: int = 0):
    rng = random.Random(seed)
    checks = []
    ok = True
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        f = _random_poly(rng, p, n, rng.randrange(0, 5))
        x = tuple(rng.randrange(p) for _ in range(n))
        z = tuple(rng.randrange(p) for _ in range(n))
        lhs = f.evaluate(tuple((a + b) % p for a, b in zip(x, z)))
        rhs = 0
        for j in monomials_leq(n, max(f.degree, 0)):
            term = hasse_derivative(f, j).evaluate(x)
            for zc, e in zip(z, j):
                term = term * pow(zc, e, p) % p
            rhs = (rhs + term) % p
        if lhs != rhs:
            ok = False
    checks.append(("hasse_shift_identity", ok))

    ok = all(
        len(monomials_leq(n, m - 1)) == dim_leq(n, m - 1)
        and len(monomials_homog(n, d)) == dim_homog(n, d)
        for n in (1, 2, 3)
        for m in (1, 2, 3, 4)
        for d in (0, 1, 2, 5)
    )
    checks.append(("dimension_counts", ok))

    spec2 = RingSpec.make(2, 2)
    E = eval_matrix(EvalMapSpec(
        p=2, n=2, points=tuple(enumerate_points(spec2)),
        m=3, degree=3, homogeneous=True,
    ))
    ok = True
    for d in enumerate_directions(spec2):
        for base in enumerate_points(spec2):
            line = Line.through(base, d, spec2)
            A = eval_matrix(EvalMapSpec(
                p=2, n=2, points=tuple(line_points(line, spec2)),
                m=3, degree=3, homogeneous=True,
            ))
            B = eval_matrix(EvalMapSpec(
                p=2, n=2, points=(d.rep,), m=2, degree=3, homogeneous=True,
            ))
            for v in nullspace(A).a:
                if (B.a @ v % 2).any():
                    ok = False
    checks.append(("line_kernel_containment_p2_k2", ok))
    return checks


def suite_incidence(seed: int = 0):
    checks = []
    ok = True
    for q, n in [(4, 1), (4, 2), (9, 1), (8, 1)]:
        spec = RingSpec.make(q, n)
        W = incidence_matrix_pk(spec.factors[0][0], spec.factors[0][1], n)
        units = [u for u in range(1, q) if math.gcd(u, q) == 1]
        for x in enumerate_points(spec):
            for u in units:
                ux = tuple(u * c % q for c in x)
                if not np.array_equal(
                    W.a[point_index(x, spec)], W.a[point_index(ux, spec)]
                ):
                    ok = False
    checks.append(("unit_scaling_fixes_rows", ok))

    spec3 = RingSpec.make(3, 2)
    S = full_set(spec3)
    W = incidence_matrix(3, 2)
    A = (line_matrix(S, char=3) @ W).a
    J = np.ones_like(A)
    rows_JA = {tuple(r) for r in (J - A) % 3}
    rows_W = {tuple(r) for r in W.a}
    allones = tuple(np.ones(9, dtype=np.int64))
    checks.append(("complement_rows_match_p3", rows_JA | {allones} == rows_W))
    rank_A = rank(GFpMatrix(3, A))
    checks.append(("product_rank_drop_at_most_one", rank_A >= rank(W) - 1))

    ok = True
    for q, n in [(2, 1), (2, 2), (3, 1), (4, 1), (4, 2), (9, 1), (8, 1), (2, 3), (3, 2), (5, 1), (4, 3)]:
        spec = RingSpec.make(q, n)
        p, k = spec.factors[0]
        W = incidence_matrix_pk(p, k, n)
        distinct = len({tuple(r) for r in W.a})
        if rank_rational(W.a) != distinct:
            ok = False
    checks.append(("rational_rank_equals_distinct_rows", ok))
    return checks


def suite_kakeya(seed: int = 0):
    rng = random.Random(seed)
    checks = []
    for p, n in [(3, 2), (5, 2), (7, 2), (3, 3)]:
        T = tangent_construction(p, n)
        ok = verify(T)[0] and T.size <= p**n / 2 ** (n - 1) + 3 * p ** (n - 1)
        checks.append((f"tangent_p{p}_n{n}", ok))
    spec15 = RingSpec.make(15, 2)
    P = crt_product(
        [tangent_construction(3, 2), tangent_construction(5, 2)], spec15
    )
    checks.append(
        ("crt_product_size", verify(P)[0]
         and P.size == tangent_construction(3, 2).size * tangent_construction(5, 2).size)
    )
    S = full_set(RingSpec.make(6, 1))
    P2 = power_product(S, 2)
    checks.append(("power_product_size", verify(P2)[0] and P2.size == S.size**2))
    S3 = full_set(RingSpec.make(3, 2))
    lines = greedy_independent_lines(S3)
    sel = GFpMatrix(3, [
        [1 if pt in set(line_points(l, S3.spec)) else 0
         for pt in enumerate_points(S3.spec)]
        for l in lines
    ])
    checks.append(
        ("greedy_lines_independent", len(lines) >= 3 and rank(sel) == len(lines))
    )
    return checks


def suite_bounds(seed: int = 0):
    from .bounds import (
        certify_prime,
        certify_prime_power,
        certify_squarefree,
        certify_two_primes,
        fq_bound,
        squarefree_bound,
    )

    rng = random.Random(seed)
    checks = []
    checks.append(("fq_bound_values",
                   fq_bound(3, 2) == Fraction(81, 25)
                   and fq_bound(2, 1) == Fraction(4, 3)))
    checks.append(("squarefree_bound_values",
                   squarefree_bound(15, 2) == 25
                   and squarefree_bound(6, 2) == Fraction(1296, 225)))

    ok = True
    for p, n in [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]:
        for S in (full_set(RingSpec.make(p, n)), tangent_construction(p, n)):
            r = certify_prime(S)
            if not r.passed or r.certified > S.size:
                ok = False
            if r.certified < math.comb(p + n - 2, n - 1):
                ok = False
    checks.append(("prime_pipeline_sound", ok))

    ok = True
    for N in (6, 10, 15):
        spec = RingSpec.make(N, 2)
        S = full_set(spec)
        r = certify_two_primes(S)
        if not r.passed or r.certified > S.size:
            ok = False
    checks.append(("two_prime_pipeline_sound", ok))

    r = certify_squarefree(full_set(RingSpec.make(6, 2)), k=2)
    checks.append(("squarefree_pipeline_sound", r.passed and r.certified <= 36))

    ok = True
    for q, n in [(4, 1), (4, 2), (2, 2)]:
        S = full_set(RingSpec.make(q, n))
        r = certify_prime_power(S)
        if not r.passed:
            ok = False
    checks.append(("prime_power_pipeline_sound", ok))

    ok = True
    for N, n in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (4, 1), (6, 1), (5, 2), (6, 2), (4, 2)]:
        spec = RingSpec.make(N, n)
        S = full_set(spec)
        M = line_matrix(S)
        trimmed = int(np.count_nonzero(np.any(M.a, axis=0)))
        if rank(M) > S.size or rank(M) < math.ceil(trimmed / N):
            ok = False
    checks.append(("rank_size_both_directions", ok))
    return checks


SUITES = {
    "ring": suite_ring,
    "gfp": suite_gfp,
    "cyclotomic": suite_cyclotomic,
    "polyspace": suite_polyspace,
    "incidence": suite_incidence,
    "kakeya": suite_kakeya,
    "bounds": suite_bounds,
}


def run_suites(filter_expr: str | None = None, seed: int = 0):
    """Run all suites whose name contains filter_expr; returns result rows."""
    rows = []
    for name, fn in SUITES.items():
        if filter_expr and filter_expr not in name:
            continue
        for check, passed in fn(seed):
            rows.append((name, check, passed))
    return rows
