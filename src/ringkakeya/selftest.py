"""Named property suites over every module, runnable from the CLI.

Each property has one implementation here.  `ringkakeya selftest` and
pytest run the same 79 checks (ring 17, gfp 7, cyclotomic 20, polyspace 5,
incidence 10, kakeya 13, bounds 7): `tests/test_cli.py::test_selftest_suite`
runs every suite, and the module tests and acceptance criteria call single
checks at their own seeds or inputs.  A check that draws random instances
takes a `random.Random`; a check over one space or set takes it as
arguments.  Each suite returns (check name, passed) pairs and is
deterministic under a fixed seed; the seed only varies the random draws.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np

from .bounds import (
    certify_prime, certify_prime_power, certify_squarefree, certify_two_primes,
    fq_bound, squarefree_bound,
)
from .cyclo import (
    dft_product, rank_cyclo, rank_rational, reduction_matrix, zero_pattern,
)
from .gfp import GFpMatrix, _echelon, _row_factors, kron, rank
from .incidence import (
    complement_indicator, incidence_matrix, incidence_matrix_pk, incidence_quotient,
)
from .kakeya import (
    crt_product, full_set, line_matrix, min_kakeya_search, power_product,
    tangent_construction, verify,
)
from .polys import (
    GFpPoly, decoding_matrix, deriv_indices, dim_homog, dim_leq,
    eval_matrix, hasse_derivative, monomials_homog, monomials_leq, sz_mult_check,
)
from .rings import (
    Direction, Line, RingSpec, crt_combine, enumerate_directions, line_points,
    line_split, point_index,
)


def _random_gfp(rng: random.Random, p: int, rows: int, cols: int) -> GFpMatrix:
    return GFpMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def _units(N: int) -> list[int]:
    return [u for u in range(1, N) if math.gcd(u, N) == 1]


def _tuples(points: np.ndarray) -> list[tuple[int, ...]]:
    return [tuple(pt) for pt in points.tolist()]


def point_index_bijection(N: int, n: int) -> bool:
    """Row i of the point table has index i, and the rows are the N^n
    points in lexicographic order."""
    spec = RingSpec.make(N, n)
    return (np.array_equal(point_index(spec.points, spec), np.arange(N**n))
            and _tuples(spec.points) == list(product(range(N), repeat=n)))


def direction_classes(N: int, n: int) -> bool:
    """Each class of Direction.from_vector is listed once, and the classes
    are the orbits of the valid vectors under the units."""
    spec = RingSpec.make(N, n)
    dirs = enumerate_directions(spec)

    def orbit(vec):
        return frozenset(tuple(u * c % N for c in vec) for u in _units(N))

    classes, orbits = set(), set()
    for vec in product(range(N), repeat=n):
        try:
            classes.add(Direction.from_vector(vec, spec))
        except ValueError:
            continue
        orbits.add(orbit(vec))
    return (set(dirs) == classes and len(dirs) == len(classes)
            and {orbit(d.rep) for d in dirs} == orbits)


def line_crt_product(N: int) -> bool:
    """A line is the CRT image of the product of its component lines: every
    line of Z/N, and the line through (1, 2) in each direction of (Z/N)^2."""
    for n, bases in [(1, [(a,) for a in range(N)]), (2, [(1, 2)])]:
        spec = RingSpec.make(N, n)
        for d in enumerate_directions(spec):
            for base in bases:
                line = Line.through(base, d, spec)
                parts = [line_points(pl, fs) for pl, fs
                         in zip(line_split(line, spec), spec.factor_specs())]
                combos = np.indices([len(part) for part in parts]).reshape(len(parts), -1)
                crt = crt_combine([part[c] for part, c in zip(parts, combos)], spec)
                if set(_tuples(line_points(line, spec))) != set(_tuples(crt)):
                    return False
    return True


def suite_ring(seed: int = 0):
    return (
        [(f"point_index_bijection_N{N}_n{n}", point_index_bijection(N, n))
         for N, n in [(6, 1), (10, 1), (15, 1), (4, 2), (9, 1), (6, 2), (5, 2),
                      (7, 2), (10, 2), (3, 4)]]
        + [(f"direction_classes_N{N}_n{n}", direction_classes(N, n))
           for N, n in [(6, 1), (6, 2), (15, 1), (15, 2), (3, 2)]]
        + [(f"line_crt_product_N{N}", line_crt_product(N)) for N in (6, 15)]
    )


def rank_product_bound(rng: random.Random) -> bool:
    for p, cols in [(3, 5), (5, 3)]:
        for _ in range(100):
            A, B = _random_gfp(rng, p, 3, 4), _random_gfp(rng, p, 4, cols)
            if rank(A @ B) > min(rank(A), rank(B)):
                return False
    return True


def kron_mixed_product(rng: random.Random) -> bool:
    for _ in range(100):
        p = rng.choice((3, 5))
        A1, A2 = _random_gfp(rng, p, 2, 2), _random_gfp(rng, p, 2, 3)
        B1, B2 = _random_gfp(rng, p, 2, 2), _random_gfp(rng, p, 3, 2)
        if kron(A1, A2) @ kron(B1, B2) != kron(A1 @ B1, A2 @ B2):
            return False
    return True


def crank_multiplication_bound(rng: random.Random) -> bool:
    """crank{A_i} >= crank{A_i·H} on 100 random families of three 3 x 4
    members, each family drawn stacked."""
    for _ in range(100):
        fam = _random_gfp(rng, 3, 9, 4)
        H = _random_gfp(rng, 3, 4, 5)
        if rank(fam) < rank(fam @ H):
            return False
    return True


def crank_tensor_bound(rng: random.Random) -> bool:
    """crank{A_i ⊗ B_ij} >= crank{A_i} · min_i crank{B_ij}, on 100 random
    families and on 50 where each A_i is one row of a rank-2 matrix.  A
    (the A_i) and each B_i (the B_ij) are drawn stacked; the rows of
    A_i ⊗ B_i are those of the A_i ⊗ B_ij."""
    for trial in range(150):
        if trial < 100:
            A = _random_gfp(rng, 3, 4, 3)
            B = [_random_gfp(rng, 3, 4, 2) for _ in range(2)]
        else:
            A = _random_gfp(rng, 3, 2, 4)
            while rank(A) < 2:
                A = _random_gfp(rng, 3, 2, 4)
            B = [_random_gfp(rng, 3, 3, 3) for _ in range(2)]
        family = np.vstack([kron(GFpMatrix(3, Ai), Bi).a
                            for Ai, Bi in zip(np.split(A.a, 2), B)])
        if rank(GFpMatrix(3, family)) < rank(A) * min(map(rank, B)):
            return False
    return True


def rank_paths_agree(rng: random.Random) -> bool:
    """rank M = rank M^T on 50 random matrices."""
    for _ in range(50):
        M = _random_gfp(rng, rng.choice([2, 3, 5]), *rng.choice([(4, 5), (5, 4)]))
        if rank(M) != rank(M.transpose()):
            return False
    return True


def rank_cases(gen: np.random.Generator, p: int, cols: int) -> list[np.ndarray]:
    """Matrices over F_p of width cols: 0-row, 0-column, all-zero, random,
    random with zero and duplicate rows, low-rank products, and rows whose
    leading (last non-zero) entry is p − 1, with fewer rows than columns
    and with more."""
    cases = [np.zeros((0, cols), dtype=np.int64), np.zeros((cols, 0), dtype=np.int64)]
    for rows in (max(cols // 2, 1), cols + 5):
        full = gen.integers(0, p, (rows, cols))
        cases += [np.zeros((rows, cols), dtype=np.int64), full.copy()]
        full[::3] = 0
        inner = int(gen.integers(1, 5))
        top = gen.integers(0, cols, rows)
        lead = full * (np.arange(cols) < top[:, None])
        lead[np.arange(rows), top] = p - 1
        cases += [
            np.vstack([full, full[::-1], full[:2]]),
            gen.integers(0, p, (rows, inner)) @ gen.integers(0, p, (inner, cols)) % p,
            lead,
            np.vstack([lead, lead]),
        ]
    return cases


def packed_rank_matches_echelon(rng: random.Random) -> bool:
    """`rank` on packed rows, the XOR basis at p = 2 and the byte-packed
    basis at p = 3, 5, 7 and 11, equals the echelon pivot count on
    `rank_cases` at column counts on each side of the byte and word
    boundaries."""
    gen = np.random.default_rng(rng.randrange(2**32))
    return all(rank(GFpMatrix(p, a)) == _echelon(a, p)
               for p in (2, 3, 5, 7, 11) for cols in (1, 7, 8, 9, 63, 64, 65, 129)
               for a in rank_cases(gen, p, cols))


def row_factors_match_per_pair(rng: random.Random) -> bool:
    """`_row_factors` on stacks of 2 to 6 pairs of ranks from 0 up gives each
    member its own pair's factor, at the primes on each side of the int8,
    int16 and int32 working types."""
    gen = np.random.default_rng(rng.randrange(2**32))
    for p, _ in product((2, 3, 11, 13, 181, 191, 46337, 46349), range(8)):
        L, m, n, k = gen.integers((2, 0, 1, 0), (7, 9, 9, 5)).tolist()
        A = np.stack([gen.integers(0, p, (m, r)) @ gen.integers(0, p, (r, n)) % p
                      for r in gen.integers(0, min(m, n) + 1, L)])
        B = np.stack([gen.integers(0, p, (k, m)) @ a % p for a in A])
        if not all(np.array_equal(c, _row_factors(A[i:i + 1], B[i:i + 1], p)[0])
                   for i, c in enumerate(_row_factors(A, B, p))):
            return False
    return True


def suite_gfp(seed: int = 0):
    rng = random.Random(seed)
    return [(check.__name__, check(rng)) for check in (
        rank_product_bound, kron_mixed_product, crank_multiplication_bound,
        crank_tensor_bound, rank_paths_agree, packed_rank_matches_echelon,
        row_factors_match_per_pair,
    )]


def rank_transfer_random(rng: random.Random) -> bool:
    """rank over Q(γ) >= F_p rank of the zero pattern on 200 random
    matrices of zeros and powers of γ, 1 to 6 rows and columns."""
    for _ in range(200):
        p, k = rng.choice([(2, 1), (3, 1), (2, 2), (3, 2)])
        R = reduction_matrix(p, k)
        zero = np.zeros_like(R[0])
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        coeffs = np.array([
            [zero if rng.random() < 0.3 else R[rng.randrange(p**k)]
             for _ in range(cols)]
            for _ in range(rows)
        ])
        if rank_cyclo(coeffs, p, k) < rank(zero_pattern(coeffs, p)):
            return False
    return True


def dft_line_row_formula(q: int, n: int) -> bool:
    """On every line the sum of γ^{<t, y>} over its points t is 0 where
    <d, y> != 0 and q·γ^{<base, y>} elsewhere, and so are the rows of
    dft_product and the sums of character-table rows over the line."""
    spec = RingSpec.make(q, n)
    R = reduction_matrix(*spec.factors[0])
    zero = np.zeros_like(R[0])
    pts = _tuples(spec.points)
    lines = [Line.through(base, d, spec)
             for d in enumerate_directions(spec) for base in pts]
    A = np.zeros((len(lines), len(pts)), dtype=np.int64)
    for i, line in enumerate(lines):
        A[i, point_index(line_points(line, spec), spec)] = 1
    coeffs = dft_product(A, spec)
    table = dft_product(np.eye(len(pts), dtype=np.int64), spec)
    for i, line in enumerate(lines):
        for j, y in enumerate(pts):
            acc = sum(R[sum(a * b for a, b in zip(t, y)) % q]
                      for t in _tuples(line_points(line, spec)))
            ip_d = sum(a * b for a, b in zip(line.direction.rep, y)) % q
            ip_b = sum(a * b for a, b in zip(line.base, y)) % q
            want = zero if ip_d else q * R[ip_b]
            if not (np.array_equal(acc, want)
                    and np.array_equal(coeffs[i, j], want)):
                return False
    return np.array_equal(np.tensordot(A, table, axes=1), coeffs)


def dft_full_rank(q: int, n: int) -> bool:
    spec = RingSpec.make(q, n)
    F = dft_product(np.eye(q**n, dtype=np.int64), spec)
    return rank_cyclo(F, *spec.factors[0]) == q**n


def suite_cyclotomic(seed: int = 0):
    return (
        [("rank_transfer_random", rank_transfer_random(random.Random(seed)))]
        + [(f"dft_line_row_formula_q{q}_n{n}", dft_line_row_formula(q, n))
           for q, n in [(2, 1), (2, 2), (3, 1), (4, 1), (4, 2), (2, 3), (3, 2),
                        (8, 1), (9, 1)]]
        + [(f"dft_full_rank_q{q}_n{n}", dft_full_rank(q, n))
           for q, n in [(2, 2), (3, 1), (4, 1), (2, 3), (3, 2), (8, 1), (9, 1),
                        (2, 1), (27, 1), (3, 4)]]
    )


def hasse_shift_identity(rng: random.Random) -> bool:
    """f(x + z) = Σ_j (Hasse derivative j of f)(x) · z^j on 500 random
    polynomials over F_2, F_3, F_5 in 1 to 3 variables."""
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        f = GFpPoly(p, n, {e: rng.randrange(p)
                           for e in monomials_leq(n, rng.randrange(0, 5))})
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
            return False
    return True


def dimension_counts() -> bool:
    return all(
        len(monomials_leq(n, d)) == dim_leq(n, d)
        and len(monomials_homog(n, d)) == dim_homog(n, d)
        for n in (1, 2, 3) for d in range(6)
    ) and all(len(deriv_indices(n, m)) == dim_leq(n, m - 1)
              for n in (1, 2, 3) for m in (1, 2, 3, 4))


def line_kernel_containment() -> bool:
    """Over F_2^2, a cubic whose order-3 evaluations vanish on a line has
    vanishing order-2 evaluations at the line's direction: ker A ⊆ ker B,
    that is, B's rows lie in A's row space, rank [A; B] = rank A."""
    spec = RingSpec.make(2, 2)
    for d in enumerate_directions(spec):
        B = eval_matrix(2, 2, (d.rep,), 2, 3)
        for base in _tuples(spec.points):
            A = eval_matrix(2, 2, line_points(Line.through(base, d, spec), spec), 3, 3)
            if rank(GFpMatrix(2, np.vstack([A.a, B.a]))) != rank(A):
                return False
    return True


def sz_multiplicity_sweep() -> bool:
    """The multiplicity Schwartz–Zippel count holds for all 728 non-zero
    polynomials of degree <= 2 in F_3[x, y], and is tight at xy (6 = 2·3)."""
    basis = monomials_leq(2, 2)
    polys = [GFpPoly(3, 2, dict(zip(basis, coeffs)))
             for coeffs in product(range(3), repeat=len(basis)) if any(coeffs)]
    counts = [sz_mult_check(f, range(3)) for f in polys]
    at_xy = counts[polys.index(GFpPoly(3, 2, {(1, 1): 1}))]
    return (len(polys) == 728 and all(ok for _, _, ok in counts)
            and at_xy == (6, 6, True))


def decode_then_evaluate() -> bool:
    """Over F_2^2, on each of the 6 lines, the decoding matrix times the
    order-3 evaluations of the homogeneous cubics at all points is their
    order-2 evaluation at the line's direction; the stacked per-direction
    evaluations have rank dim_homog(2, 3) = 4."""
    spec = RingSpec.make(2, 2)
    pts = _tuples(spec.points)
    E = eval_matrix(2, 2, pts, 3, 3)
    D = {d: eval_matrix(2, 2, (d.rep,), 2, 3) for d in enumerate_directions(spec)}
    lines = {Line.through(base, d, spec) for d in D for base in pts}
    return (len(lines) == 6
            and all(decoding_matrix(line, spec, 2) @ E == D[line.direction]
                    for line in lines)
            and rank(GFpMatrix(2, np.vstack([M.a for M in D.values()])))
            == dim_homog(2, 3) == 4)


def suite_polyspace(seed: int = 0):
    return [
        ("hasse_shift_identity", hasse_shift_identity(random.Random(seed))),
        ("dimension_counts", dimension_counts()),
        ("line_kernel_containment_p2_k2", line_kernel_containment()),
        ("sz_multiplicity_sweep_f3_deg2", sz_multiplicity_sweep()),
        ("decode_then_evaluate_p2_n2", decode_then_evaluate()),
    ]


def unit_scaling_fixes_rows(q: int, n: int) -> bool:
    """Scaling a point by a unit fixes its row and its column of W."""
    spec = RingSpec.make(q, n)
    W = incidence_matrix_pk(*spec.factors[0], n).a
    for i, x in enumerate(_tuples(spec.points)):
        for u in _units(q):
            j = point_index(tuple(u * c % q for c in x), spec)
            if not (np.array_equal(W[i], W[j]) and np.array_equal(W[:, i], W[:, j])):
                return False
    return True


def complement_rows_p3():
    """Over F_3^2 the rows of J - M_S·W are the complement-hyperplane rows:
    with the all-ones row, which they lack, they are the row set of W, so
    the product rank drops by at most one."""
    W = incidence_matrix(3, 2)
    A = (line_matrix(full_set(RingSpec.make(3, 2))) @ W).a
    rows_JA = {tuple(r) for r in (1 - A) % 3}
    allones = (1,) * 9
    return [
        ("complement_rows_match_p3", allones not in rows_JA
         and rows_JA | {allones} == {tuple(r) for r in W.a}),
        ("product_rank_drop_at_most_one", rank(GFpMatrix(3, A)) >= rank(W) - 1),
    ]


def rational_rank_equals_distinct_rows(q: int, n: int) -> bool:
    W = incidence_matrix_pk(*RingSpec.make(q, n).factors[0], n)
    return rank_rational(W.a) == len({tuple(r) for r in W.a})


def line_action(p: int, n: int) -> bool:
    """Over F_p^n, each of the (p^n - 1)/(p - 1)·p^{n-1} lines has indicator
    times W equal to the complement-hyperplane indicator of its direction,
    which has p^n - p^{n-1} ones."""
    spec = RingSpec.make(p, n)
    W = incidence_matrix(p, n)
    lines = {Line.through(base, d, spec) for d in enumerate_directions(spec)
             for base in _tuples(spec.points)}
    for line in lines:
        ind = np.zeros(p**n, dtype=np.int64)
        ind[point_index(line_points(line, spec), spec)] = 1
        want = complement_indicator(line.direction.rep, spec)
        if not (np.array_equal(ind @ W.a % p, want)
                and want.sum() == p**n - p ** (n - 1)):
            return False
    return len(lines) == (p**n - 1) // (p - 1) * p ** (n - 1)


def suite_incidence(seed: int = 0):
    return (
        [("unit_scaling_fixes_rows", all(unit_scaling_fixes_rows(q, n)
                                         for q, n in [(4, 1), (4, 2), (9, 1), (8, 1)]))]
        + complement_rows_p3()
        + [("rational_rank_equals_distinct_rows", all(
            rational_rank_equals_distinct_rows(q, n)
            for q, n in [(2, 1), (2, 2), (3, 1), (4, 1), (4, 2), (9, 1), (8, 1),
                         (2, 3), (3, 2), (5, 1), (4, 3)]))]
        + [("quotient_rank_matches_dense", all(
            rank(incidence_quotient(p, k, n)) == rank(incidence_matrix_pk(p, k, n))
            for p in (2, 3, 5, 7) for k in range(1, 10) for n in range(1, 10)
            if p ** (k * n) <= 729))]
        + [(f"line_action_p{p}_n{n}", line_action(p, n))
           for p, n in [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]]
    )


def _tangent_envelope(p: int, n: int) -> float:
    return p**n / 2 ** (n - 1) + 3 * p ** (n - 1)


def tangent_within_envelope(T) -> bool:
    return verify(T)[0] and T.size <= _tangent_envelope(T.spec.N, T.spec.n)


def crt_product_size() -> bool:
    """CRT products of full sets and of tangent sets are Kakeya sets of the
    product size; tangent products stay within the product of envelopes."""
    for N, n in [(15, 2), (6, 2), (6, 1)]:
        spec = RingSpec.make(N, n)
        for tangent in (False, True):
            parts = [tangent_construction(p, n) if tangent
                     else full_set(RingSpec.make(p, n)) for p in spec.primes]
            P = crt_product(parts, spec)
            envelope = math.prod(_tangent_envelope(p, n) for p in spec.primes)
            if not (verify(P)[0] and P.size == math.prod(S.size for S in parts)
                    and (P.size <= envelope or not tangent)):
                return False
    return True


def power_product_size(S) -> bool:
    P = power_product(S, 2)
    return (power_product(S, 1) is S and verify(P)[0]
            and (P.spec.N, P.spec.n) == (S.spec.N, 2 * S.spec.n)
            and P.size == S.size**2)


def suite_kakeya(seed: int = 0):
    power_bases = [
        full_set(RingSpec.make(6, 1)),
        crt_product([tangent_construction(2, 2), tangent_construction(3, 2)],
                    RingSpec.make(6, 2)),
    ]
    return (
        [(f"tangent_p{p}_n{n}", tangent_within_envelope(tangent_construction(p, n)))
         for p, n in [(3, 2), (5, 2), (7, 2), (3, 3), (11, 2), (13, 2), (5, 3),
                      (7, 3), (11, 3), (13, 3)]]
        + [("crt_product_size", crt_product_size()),
           ("power_product_size", all(map(power_product_size, power_bases))),
           ("blokhuis_mazzocca_minima",  # Blokhuis and Mazzocca 2008
            all(min_kakeya_search(RingSpec.make(q, 2))[0]
                == q * (q + 1) // 2 + (q - 1) // 2 for q in (3, 5, 7)))]
    )


def fq_bound_values() -> bool:
    return (fq_bound(3, 2) == Fraction(81, 25) and fq_bound(2, 1) == Fraction(4, 3)
            and 0 < fq_bound(101, 1) - Fraction(101, 2) < 1)


def squarefree_bound_values() -> bool:
    return (squarefree_bound(15, 2) == 25
            and squarefree_bound(6, 2) == Fraction(1296, 225)
            and float(squarefree_bound(6, 2)) == 5.76
            and squarefree_bound(7, 3) == fq_bound(7, 3))


def prime_pipeline_sound(p: int, n: int) -> bool:
    """On the full and the tangent set over F_p^n the prime certificate
    passes and lies between C(p+n-2, n-1) and |S|."""
    for S in (full_set(RingSpec.make(p, n)), tangent_construction(p, n)):
        r = certify_prime(S)
        if not (r.passed and math.comb(p + n - 2, n - 1) <= r.certified <= S.size):
            return False
    return True


def suite_bounds(seed: int = 0):
    two_primes = [certify_two_primes(full_set(RingSpec.make(N, 2)))
                  for N in (6, 10, 15)]
    square_free = certify_squarefree(full_set(RingSpec.make(6, 2)), k=2)
    ok = True
    for N, n in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (4, 1), (6, 1), (5, 2),
                 (6, 2), (4, 2)]:
        S = full_set(RingSpec.make(N, n))
        M = line_matrix(S)
        covered = int(np.count_nonzero(np.any(M.a, axis=0)))
        if rank(M) > S.size or rank(M) < math.ceil(covered / N):
            ok = False
    return [
        ("fq_bound_values", fq_bound_values()),
        ("squarefree_bound_values", squarefree_bound_values()),
        ("prime_pipeline_sound", all(prime_pipeline_sound(p, n) for p, n in
                                     [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])),
        ("two_prime_pipeline_sound",
         all(r.passed and r.certified <= r.set_size for r in two_primes)),
        ("squarefree_pipeline_sound",
         square_free.passed and square_free.certified <= 36),
        ("prime_power_pipeline_sound", all(
            certify_prime_power(full_set(RingSpec.make(q, n))).passed
            for q, n in [(4, 1), (4, 2), (2, 2)])),
        ("rank_size_both_directions", ok),
    ]


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
    """Run all suites whose name contains filter_expr; returns result rows.

    Raises ValueError, listing the suite names, when no suite matches.
    """
    if filter_expr and not any(filter_expr in name for name in SUITES):
        raise ValueError(f"no suite name contains {filter_expr!r}; the "
                         f"suites are {', '.join(SUITES)}")
    rows = []
    for name, fn in SUITES.items():
        if filter_expr and filter_expr not in name:
            continue
        for check, passed in fn(seed):
            rows.append((name, check, passed))
    return rows
