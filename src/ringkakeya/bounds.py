"""Executable lower-bound certificates for Kakeya sets.

Each pipeline multiplies the line matrix of a concrete set by a fixed
matrix (incidence, Kronecker, evaluation, or Fourier), re-derives the
row/rank identities the bound rests on, and reports every intermediate
quantity with a pass/fail flag per checked identity.  The pipelines
compute actual ranks rather than only the closed-form lower bounds, so
each inequality is an assertion between computed numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cyclo import (
    dft_product, rank_cyclo, rank_rational, reduction_matrix, zero_pattern,
)
from .errors import VerificationError
from .gfp import GFpMatrix, crank, rank
from .incidence import (
    DEFAULT_CELL_GUARD,
    _check_guard,
    complement_indicator,
    incidence_matrix,
    incidence_quotient,
)
from .kakeya import KakeyaSet, _witness_indices, line_matrix, verify
from .polys import decoding_matrix, dim_homog, dim_leq, eval_matrix
from .rings import Direction, Line, RingSpec, enumerate_directions, point_index

_SAFE_INT = 2**53


def _json_value(v):
    """v ready for json.dumps: integers of 53 bits or more and Fractions
    become strings, dicts, lists and tuples are converted element-wise, and
    anything else passes through unchanged."""
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v if abs(v) < _SAFE_INT else str(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


@dataclass
class BoundReport:
    """Outcome of one certificate pipeline on one Kakeya set."""

    pipeline: str
    N: int
    n: int
    set_size: int
    certified: int
    closed_form: Fraction | None
    quantities: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return _json_value({
            "pipeline": self.pipeline,
            "N": self.N,
            "n": self.n,
            "set_size": self.set_size,
            "certified": self.certified,
            "closed_form": self.closed_form,
            "quantities": self.quantities,
            "checks": self.checks,
            "passed": self.passed,
        })


def fq_bound(q: int, n: int) -> Fraction:
    """q^n / (2 - 1/q)^n, exactly."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return Fraction(q**n) / (Fraction(2) - Fraction(1, q)) ** n


def squarefree_bound(N: int, n: int) -> Fraction:
    """N^n / prod_i (2 - 1/p_i)^n over the prime factors of square-free N."""
    spec = RingSpec.make(N, n)
    if not spec.is_square_free:
        raise ValueError(f"{N} is not square-free")
    denom = Fraction(1)
    for p in spec.primes:
        denom *= (Fraction(2) - Fraction(1, p)) ** n
    return Fraction(N**n) / denom


def _require_valid(S: KakeyaSet):
    ok, problems = verify(S)
    if not ok:
        raise VerificationError(
            f"input fails Kakeya set verification: {problems[:3]}"
        )


def certify_prime(S: KakeyaSet, guard: int = DEFAULT_CELL_GUARD) -> BoundReport:
    """Prime-field certificate: rank of line matrix times incidence matrix.

    Verifies that each row of the product is the complement-hyperplane
    indicator of its direction, then certifies |S| >= rank of the product,
    which the rank formula pins to at least C(p+n-2, n-1).  Raises
    GuardExceeded before building anything when the line matrix or the
    incidence matrix would exceed guard cells.
    """
    spec = S.spec
    if not spec.is_prime:
        raise ValueError("prime pipeline requires a prime modulus")
    _require_valid(S)
    p, n = spec.N, spec.n
    dirs = enumerate_directions(spec)
    _check_guard(len(dirs), spec.num_points, guard)
    W = incidence_matrix(p, n, guard=guard)
    MS = line_matrix(S, char=p)
    A = MS @ W
    row_identity = all(
        np.array_equal(A.a[i], complement_indicator(d.rep, spec))
        for i, d in enumerate(dirs)
    )
    rank_A = rank(A)
    rank_MS = rank(MS)
    binom = math.comb(p + n - 2, n - 1)
    report = BoundReport(
        pipeline="prime",
        N=spec.N,
        n=n,
        set_size=S.size,
        certified=rank_A,
        closed_form=fq_bound(p, n),
        quantities={
            "rank_MS": rank_MS,
            "rank_MS_W": rank_A,
            "rank_W": rank(incidence_quotient(p, 1, n, guard=guard)),
            "binom_p_plus_n_minus_2": binom,
        },
        checks={
            "row_identity": row_identity,
            "rank_chain": rank_MS >= rank_A,
            "rank_formula_lower_bound": rank_A >= binom,
            "soundness": rank_A <= S.size,
        },
    )
    if not row_identity:
        raise AssertionError("line-action row identity failed (internal bug)")
    return report


def certify_two_primes(
    S: KakeyaSet, guard: int = DEFAULT_CELL_GUARD
) -> BoundReport:
    """Two-prime certificate over F_p, N = p*q with p < q.

    Multiplies the line matrix by (incidence ⊗ identity), checks each row
    equals the tensor of the complement-hyperplane indicator mod p with the
    q-side line indicator, and certifies via the rank of the product plus
    the tensor-span dimension bound.  Raises GuardExceeded before building
    anything when the line matrix or the incidence matrix would exceed
    guard cells.
    """
    spec = S.spec
    if not (spec.is_square_free and spec.r == 2):
        raise ValueError("two-prime pipeline requires N = p*q, distinct primes")
    _require_valid(S)
    p, q = spec.primes
    n = spec.n
    spec_p = spec.factor_specs()[0]
    dirs = enumerate_directions(spec)
    _check_guard(len(dirs), spec.num_points, guard)
    Wp = incidence_matrix(p, n, guard=guard)
    MS = line_matrix(S, char=p)
    # columns are CRT-major (p-side point, q-side point), so the product
    # with Wp ⊗ I acts on the p-side index alone
    prod = GFpMatrix(p, np.einsum(
        "ibj,ba->iaj", MS.a.reshape(len(dirs), p**n, q**n), Wp.a
    ).reshape(len(dirs), -1))

    row_identity = True
    hyper: dict[tuple, np.ndarray] = {}
    q_lines: dict[tuple, list] = {}
    for i, (Lp, ind_q) in enumerate(_split_witnesses(S, 0)):
        c = Lp.direction.rep
        if c not in hyper:
            hyper[c] = complement_indicator(c, spec_p)
        if not np.array_equal(prod.a[i], np.kron(hyper[c], ind_q)):
            row_identity = False
        q_lines.setdefault(c, []).append(ind_q)

    certified = rank(prod)
    rank_MS = rank(MS)
    V = GFpMatrix(p, [hyper[c] for c in sorted(hyper)])
    dim_V = rank(V)
    min_rank_B, _, rank_size_per_c = _group_rank_sizes(p, q_lines, q)

    report = BoundReport(
        pipeline="two-primes",
        N=spec.N,
        n=n,
        set_size=S.size,
        certified=certified,
        closed_form=squarefree_bound(spec.N, n),
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
    if not row_identity:
        raise AssertionError("tensor row identity failed (internal bug)")
    return report


def certify_squarefree(
    S: KakeyaSet,
    k: int | None = None,
    pivot_prime: int | None = None,
    guard: int = DEFAULT_CELL_GUARD,
) -> BoundReport:
    """General square-free certificate using derivative decoding matrices.

    One family member per direction: the decoding matrix of the pivot-prime
    component of its witness line, tensored with the indicator of the CRT
    product of the other components.  The stacked rank of the family,
    divided by the number of derivative indices, lower bounds |S|; the
    chain through the evaluation matrix (checked once per distinct decoder)
    and the per-factor rank-size counts is re-verified link by link.

    k defaults to the pivot prime and must be a positive multiple of it;
    any other k raises ValueError.  Raises GuardExceeded before building
    anything when the stacked family would exceed guard cells.
    """
    spec = S.spec
    if not spec.is_square_free:
        raise ValueError("square-free pipeline requires square-free N")
    if spec.r == 1:
        return certify_prime(S, guard=guard)
    _require_valid(S)
    n = spec.n
    p1 = pivot_prime if pivot_prime is not None else spec.primes[0]
    if p1 not in spec.primes:
        raise ValueError(f"{p1} is not a prime factor of {spec.N}")
    pividx = spec.primes.index(p1)
    if k is None:
        k = p1
    if k < 1 or k % p1:
        raise ValueError(f"k = {k} must be a positive multiple of the pivot prime {p1}")
    m = 2 * k - k // p1
    N0 = spec.N // p1
    spec1 = spec.factor_specs()[pividx]

    d_hom = k * p1 - 1
    delta_homog = dim_homog(n, d_hom)
    Delta = dim_leq(n, m - 1)
    # the stacked family: dim_leq(n, k-1) decoding rows per direction, one
    # column per (pivot point, derivative index, residual point)
    dirs = enumerate_directions(spec)
    _check_guard(
        len(dirs) * dim_leq(n, k - 1), p1**n * Delta * N0**n, guard
    )

    E = eval_matrix(p1, n, spec1.points, m, d_hom)
    point_evals = {
        c.rep: eval_matrix(p1, n, (c.rep,), k, d_hom)
        for c in enumerate_directions(spec1)
    }

    decoders: dict[Line, GFpMatrix] = {}
    decode_chain = True
    # (C, D, row0) per direction: the family members are kron(C, row0)
    # and kron(D, row0), built one family at a time by _tensor_rows_rank
    factors = []
    l0_rows: dict[tuple, list] = {}
    for L1, row0 in _split_witnesses(S, pividx):
        D = point_evals[L1.direction.rep]
        if L1 not in decoders:
            decoders[L1] = decoding_matrix(L1, spec1, k, m)
            if decoders[L1] @ E != D:
                decode_chain = False
        factors.append((decoders[L1], D, row0))
        l0_rows.setdefault(L1.direction.rep, []).append(row0)

    crank_family = _tensor_rows_rank(p1, [(C, v) for C, _, v in factors])
    certified = math.ceil(crank_family / Delta)
    crank_D = crank(list(point_evals.values()))
    crank_DL0 = _tensor_rows_rank(p1, [(D, v) for _, D, v in factors])
    min_crank_L0, min_union, rank_size_factor = _group_rank_sizes(p1, l0_rows, N0)
    bound0 = (
        squarefree_bound(N0, n)
        if RingSpec.make(N0, n).is_square_free
        else fq_bound(N0, n)
    )
    union_bound_ok = Fraction(min_union) >= bound0

    final_rhs = Fraction(N0 ** (n - 1)) * delta_homog
    for pi in spec.primes:
        if pi != p1:
            final_rhs /= (Fraction(2) - Fraction(1, pi)) ** n

    report = BoundReport(
        pipeline="square-free",
        N=spec.N,
        n=n,
        set_size=S.size,
        certified=certified,
        closed_form=squarefree_bound(spec.N, n),
        quantities={
            "k": k,
            "m": m,
            "pivot_prime": p1,
            "crank_family": crank_family,
            "Delta_n_m_minus_1": Delta,
            "delta_n_kp1_minus_1": delta_homog,
            "crank_D": crank_D,
            "crank_D_tensor_L0": crank_DL0,
            "min_crank_L0": min_crank_L0,
            "final_rhs": final_rhs,
        },
        checks={
            "decode_then_eval": decode_chain,
            "crank_size": crank_family <= S.size * Delta,
            "crank_multiplication": crank_family >= crank_DL0,
            "crank_tensor": crank_DL0 >= delta_homog * min_crank_L0,
            "stacked_point_eval_rank": crank_D >= delta_homog,
            "rank_size_factor": rank_size_factor,
            "union_is_kakeya_bound": union_bound_ok,
            "final_inequality": Fraction(S.size * Delta) >= final_rhs,
            "soundness": certified <= S.size,
        },
    )
    return report


def _group_rank_sizes(p: int, groups: dict, modulus: int):
    """Over the groups of 0/1 witness rows: the least F_p rank, the least
    union size, and whether every group's rank is at least
    ⌈its union / modulus⌉."""
    ranks, unions = [], []
    for rows in groups.values():
        ranks.append(rank(GFpMatrix(p, rows)))
        unions.append(int(np.count_nonzero(np.any(np.array(rows), axis=0))))
    ok = all(r >= math.ceil(u / modulus) for r, u in zip(ranks, unions))
    return min(ranks), min(unions), ok


def _split_witnesses(S: KakeyaSet, pivot: int) -> list:
    """(pivot line, residual row) per direction, in enumeration order.

    With p the factor-`pivot` prime and N0 = N/p, the witness line reduced
    mod p is its pivot component line (base: its point of least index), and
    reduced mod N0 it is the CRT product of the other components, so its
    CRT-major 0/1 indicator over (Z/N0)^n is the Kronecker product of their
    indicators."""
    spec = S.spec
    spec_p = spec.factor_specs()[pivot]
    spec0 = RingSpec.make(spec.N // spec_p.N, spec.n)
    dirs = enumerate_directions(spec)
    pts = spec.points[_witness_indices(S)]
    bases = spec_p.points[point_index(pts % spec_p.N, spec_p).min(axis=1)].tolist()
    rows = np.zeros((len(dirs), spec0.num_points), dtype=np.int64)
    cols = spec0.crt_order[point_index(pts % spec0.N, spec0)]
    rows[np.arange(len(dirs))[:, None], cols] = 1
    comps = [d.components[pivot] for d in dirs]
    return [(Line(base=tuple(b), direction=Direction(rep=c, components=(c,))), row)
            for b, c, row in zip(bases, comps, rows)]


def _tensor_rows_rank(p: int, pairs) -> int:
    """crank of the family kron(A, v) over (A, v) in pairs, v a 0/1 row.

    Column (a, y) is zero in every member unless some A is non-zero in
    column a and some v holds y, and dropping all-zero columns leaves the
    rank unchanged; so only those acols × ys columns are built, each member
    written straight into one int64 array (the entries of A lie in [0, p),
    so each product is canonical)."""
    acols = np.flatnonzero(np.any([A.a.any(axis=0) for A, _ in pairs], axis=0))
    ys = np.flatnonzero(np.any([v for _, v in pairs], axis=0))
    family = np.empty(
        (sum(A.rows for A, _ in pairs), acols.size * ys.size), dtype=np.int64
    )
    r = 0
    for A, v in pairs:
        block = family[r : r + A.rows].reshape(A.rows, acols.size, ys.size)
        np.multiply(A.a[:, acols, None], v[ys], out=block)
        r += A.rows
    return rank(GFpMatrix(p, family))


def certify_prime_power(
    S: KakeyaSet, guard: int = DEFAULT_CELL_GUARD
) -> BoundReport:
    """Prime-power certificate via the character-table (Fourier) product.

    Multiplies the line matrix by the character table over Z[γ], checks the
    closed form of each row (zero off the direction's orthogonal classes,
    p^k times a power of γ elsewhere), transfers the rank of the scaled
    product down to F_p, and records the rank of the incidence matrix as
    the certified bound.  The product is computed in integers: each entry
    is a histogram of γ-exponents times the reduction matrix.  Its rank
    over Q(γ) comes from `rank_cyclo`, which stops early at the rational
    rank of the line matrix, an upper bound.

    Rows of the transferred pattern are exactly the incidence-matrix rows
    at the direction representatives; rows at non-unit vectors are not
    reproduced, so the computed pattern rank can be smaller than the full
    incidence rank (both are reported), and the headline inequality
    |S| >= rank of the incidence matrix is checked numerically.
    """
    spec = S.spec
    if not spec.is_prime_power:
        raise ValueError("prime-power pipeline requires N = p^k")
    _require_valid(S)
    p, kk = spec.factors[0]
    q = spec.N
    n = spec.n
    dirs = enumerate_directions(spec)
    # dft_product's exponent histogram (q points per line), and W's size
    _check_guard(len(dirs) * q, spec.num_points, guard)
    _check_guard(spec.num_points, spec.num_points, guard)
    MS = line_matrix(S, char=p)
    coeffs = dft_product(MS.a, spec)
    # row i should be q·γ^{<base_i, y>} where <d_i, y> = 0, and 0 elsewhere;
    # [<d_i, y> = 0] is also row d_i of the incidence matrix W
    pts = spec.points
    reps = np.array([d.rep for d in dirs], dtype=np.int64)
    bases = np.array([S.witness[d].base for d in dirs], dtype=np.int64)
    R = reduction_matrix(p, kk)
    w_rows = reps @ pts.T % q == 0
    want = q * R[bases @ pts.T % q] * w_rows[..., None]
    row_formula = np.array_equal(coeffs, want)

    pattern = zero_pattern(coeffs, p)
    pattern_match = np.array_equal(pattern.a, w_rows)
    rank_MS_Q = rank_rational(MS.a)
    rank_c = rank_cyclo(coeffs, p, kk, upper=rank_MS_Q)
    rank_pattern = rank(pattern)
    rank_W = rank(incidence_quotient(p, kk, n, guard=guard))

    report = BoundReport(
        pipeline="prime-power",
        N=q,
        n=n,
        set_size=S.size,
        certified=rank_W,
        closed_form=None,
        quantities={
            "rank_W_pk_n": rank_W,
            "rank_pattern": rank_pattern,
            "rank_cyclo": rank_c,
            "rank_MS_rational": rank_MS_Q,
            "direction_rows_span_full_rank": rank_pattern == rank_W,
        },
        checks={
            "dft_row_formula": row_formula,
            "pattern_rows_match": pattern_match,
            "rank_transfer": rank_c >= rank_pattern,
            "product_rank_monotone": rank_MS_Q >= rank_c,
            "rank_size": S.size >= rank_MS_Q,
            "headline_bound": S.size >= rank_W,
        },
    )
    if not row_formula or not pattern_match:
        raise AssertionError("Fourier row identity failed (internal bug)")
    return report
