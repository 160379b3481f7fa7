"""Executable lower-bound certificates for Kakeya sets.

Each pipeline multiplies the line matrix of a concrete set by a fixed
matrix (incidence, Kronecker, evaluation, or Fourier), re-derives the
row/rank identities the bound rests on, and reports every intermediate
quantity with a pass/fail flag per checked identity.  The pipelines
compute actual ranks rather than only the closed-form lower bounds, so
each inequality is an assertion between computed numbers.

`prime` and `two-primes` share one product, `_pivot_product`: over F_p,
p the least prime of square-free N, the line matrix times W_p ⊗ I_{N/p}
on W_p's distinct non-zero columns, one per direction of (Z/p)^n.  By the
CRT split each row is (pivot line · W_p) ⊗ residual line, so the rows are
built from these two factors, the pivot one checked witness by witness,
and ranked as packed rows; no dense line matrix is multiplied, and one
guard counts its cells.  `prime` is the case N = p, with rank W the
closed form `rank_formula`.  `square-free` reads its decoders and point
evaluations off one evaluation table of the pivot field, built once per
process (`_pivot_eval_matrix`, the last 4 kept), as each `RingSpec` is (the
last 64 rings); the decoders are solved on every call, nothing derived from
a Kakeya set is kept and every rank is taken again.
`prime-power` multiplies sub-progressions of the witness lines, one per
unit orbit of (Z/p^k)^n, by the character table, and certifies rank W
with one F_p rank and one F_ℓ image that reaches it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cyclo import dft_product, rank_cyclo, reduction_matrix
from .errors import DEFAULT_CELL_GUARD, VerificationError, _check_guard, _json_value
from .gfp import GFpMatrix, PackedRows, _check_product, _pack_rows, _packs, rank
from .incidence import rank_formula
from .kakeya import KakeyaSet, _verify
from .polys import _decoders, dim_homog, dim_leq, eval_matrix
from .rings import RingSpec, _least_bases, _read_only, point_index


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


def _require_valid(S: KakeyaSet) -> np.ndarray:
    """The `_witness_indices` of S, computed once by its verification;
    VerificationError when S fails it."""
    problems, idx = _verify(S)
    if problems:
        raise VerificationError(
            f"input fails Kakeya set verification: {problems[:3]}"
        )
    return idx


def _pivot_product(S: KakeyaSet, guard: int):
    """The F_p ranks of M_S and of M_S·(W_p ⊗ I_m), p the least prime of
    square-free N and m = N/p, the product on W_p's distinct columns.

    Column u·y of W_p equals column y (u a unit), and column 0 maps a row
    to p times its residual row, so the direction reps ys of (Z/p)^n keep
    the rank.  CRT split: for a line L = {a + t·d}, t ↦ (t mod p, t mod m)
    is a bijection Z/N → Z/p × Z/m, so ind(L) = ind(L mod p) ⊗ ind(L mod m)
    in CRT-major order, and ind(L)·(W_p ⊗ I_m) = (ind(L mod p)·W_p) ⊗
    ind(L mod m).  Points t = 0..p-1 of witness line i, reduced mod p, are
    its pivot line; their rows of the p^n × |ys| table [<x, y> = 0] must
    sum mod p to H_i, the complement-hyperplane row over ys of its pivot
    component c_i (AssertionError otherwise), and its residual factor is
    its `_residual_rows` row.  The product rows H_i ⊗ rows_i are one bool
    table; M_S is taken from the point indices in natural column order, a
    column permutation.  GuardExceeded first, before anything is built,
    past guard line-matrix cells.  Returns the ranks of M_S and the
    product, the indices of the c_i in (Z/p)^n, H and the residual rows.
    """
    idx = _require_valid(S)
    spec = S.spec
    p, D = spec.primes[0], len(idx)
    _check_guard(f"line matrix of (Z/{spec.N})^{spec.n}", D, spec.num_points, guard)
    spec_p = spec.factor_specs()[0]
    ys = spec_p.dir_reps
    comps = spec.dir_components[0]
    H = comps @ ys.T % p != 0
    table = spec_p.points @ ys.T % p == 0
    pts = spec.points[idx]
    if not np.array_equal(table[point_index(pts[:, :p] % p, spec_p)].sum(axis=1) % p, H):
        raise AssertionError("pivot row identity failed (internal bug)")
    if spec.r == 1:  # no rest: row i is H_i alone
        rows = np.ones((D, 1), dtype=bool)
    else:
        rows = _residual_rows(spec, 0, pts)
    MS = np.zeros((D, spec.num_points), dtype=bool)
    MS[np.arange(D)[:, None], idx] = True
    prod = (H[:, :, None] & rows[:, None, :]).reshape(D, -1)
    return (_rank_01(p, MS), _rank_01(p, prod), point_index(comps, spec_p), H, rows)


def _rank_01(p: int, a: np.ndarray) -> int:
    """F_p rank of the bool table a, packed once where `rank` packs rows,
    without an int64 copy; as a GFpMatrix for p >= 13."""
    if _packs(p):
        return rank(PackedRows(p, a.shape[1], _pack_rows(a, p)))
    return rank(GFpMatrix(p, a))


def certify_prime(S: KakeyaSet, guard: int = DEFAULT_CELL_GUARD) -> BoundReport:
    """Prime-field certificate: rank of line matrix times incidence matrix.

    `_pivot_product` with m = 1: each row of the product is the
    complement-hyperplane indicator of its direction.  Certifies |S| >= rank
    of the product, which the rank formula pins to at least C(p+n-2, n-1);
    rank_W is `rank_formula`, the k = 1 theorem that `wrank` checks.
    """
    spec = S.spec
    if not spec.is_prime:
        raise ValueError("prime pipeline requires a prime modulus")
    rank_MS, rank_A, _, _, _ = _pivot_product(S, guard)
    p, n = spec.N, spec.n
    binom = math.comb(p + n - 2, n - 1)
    return BoundReport(
        pipeline="prime",
        N=spec.N,
        n=n,
        set_size=S.size,
        certified=rank_A,
        closed_form=fq_bound(p, n),
        quantities={
            "rank_MS": rank_MS,
            "rank_MS_W": rank_A,
            "rank_W": rank_formula(p, n),
            "binom_p_plus_n_minus_2": binom,
        },
        checks={
            "row_identity": True,
            "rank_chain": rank_MS >= rank_A,
            "rank_formula_lower_bound": rank_A >= binom,
            "soundness": rank_A <= S.size,
        },
    )


def certify_two_primes(
    S: KakeyaSet, guard: int = DEFAULT_CELL_GUARD
) -> BoundReport:
    """Pivot certificate over F_p for square-free N with at least two
    primes, p the least of them and m = N/p.

    `_pivot_product`: each row of M_S·(W_p ⊗ I_m) is the tensor of the
    complement-hyperplane indicator of its pivot direction with its
    residual line indicator.  Certifies |S| >= rank of the product, and
    checks that rank against the tensor-span bound dim V · min rank B: V
    spans the complement-hyperplane rows of the distinct pivot directions,
    and B is the residual rows of the directions sharing one of them.

    dim V is C(p+n-2, n-1) whatever S is.  Over F_p, H_c(y) = <c, y>^{p-1} =
    Σ_{|α|=p-1} (p-1 choose α)·c^α·y^α, each coefficient a unit as p-1 < p.
    The forms y^α are independent on F_p^n (exponents below p), zero at 0
    and unchanged by y ↦ λ·y, so independent on the direction reps.  So H
    over the D_p directions is A·B, A[c, α] = (p-1 choose α)·c^α and B[α, y]
    = y^α, each of full rank C(p+n-2, n-1), and every pivot direction
    occurs.  Each product row lies in V ⊗ F_p^{m^n}, so `certified` is at
    most min(#directions, C(p+n-2, n-1)·m^n).
    """
    spec = S.spec
    if spec.kind != "square-free":
        raise ValueError("two-prime pipeline requires square-free N with at "
                         "least two prime factors")
    rank_MS, certified, pivots, H, rows = _pivot_product(S, guard)
    p, n = spec.primes[0], spec.n
    dim_V = rank(GFpMatrix(p, H[np.unique(pivots, return_index=True)[1]]))
    min_rank_B, _, rank_size_per_c = _group_rank_sizes(p, pivots.tolist(),
                                                       rows, spec.N // p)
    return BoundReport(
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
            "row_identity": True,
            "tensor_span_bound": certified >= dim_V * min_rank_B,
            "rank_size_per_direction": rank_size_per_c,
            "rank_chain": rank_MS >= certified,
            "soundness": certified <= S.size,
        },
    )


EVAL_CACHE_SIZE = 4  # a certify-squarefree pass uses 2 pivot fields


@functools.lru_cache(maxsize=EVAL_CACHE_SIZE)
def _pivot_eval_matrix(p: int, n: int, m: int, degree: int, guard: int) -> GFpMatrix:
    """The read-only `eval_matrix` of order m and degree `degree` at every
    point of F_p^n, counted against guard and built once per process for
    each argument tuple; a refusal raises and is not kept."""
    E = eval_matrix(p, n, RingSpec.make(p, n).points, m, degree, guard)
    _read_only(E.a)
    return E


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
    chain through the evaluation matrix and the per-factor rank-size counts
    is re-verified link by link.  One `eval_matrix` table holds every point
    evaluation D_b; each distinct pivot line, found by one integer
    `np.unique` of (base, rep) keys, has its decoder solved once and checked
    by one batched product, and each family is one broadcast.

    k defaults to the pivot prime and must be a positive multiple of it;
    any other k, or a pivot prime that does not divide N, raises
    ValueError, for prime N too, where the report is `certify_prime`'s.
    Raises GuardExceeded before building anything when the stacked family
    would exceed guard cells.
    """
    spec = S.spec
    if not spec.is_square_free:
        raise ValueError("square-free pipeline requires square-free N")
    p1 = pivot_prime if pivot_prime is not None else spec.primes[0]
    if p1 not in spec.primes:
        raise ValueError(f"{p1} is not a prime factor of {spec.N}")
    k = p1 if k is None else k
    if k < 1 or k % p1:
        raise ValueError(f"k = {k} must be a positive multiple of the pivot prime {p1}")
    if spec.r == 1:
        return certify_prime(S, guard=guard)
    idx = _require_valid(S)
    n = spec.n
    pividx = spec.primes.index(p1)
    m = 2 * k - k // p1
    N0 = spec.N // p1
    spec1 = spec.factor_specs()[pividx]

    d_hom = k * p1 - 1
    delta_homog = dim_homog(n, d_hom)
    Delta = dim_leq(n, m - 1)
    # the stacked family: dim_leq(n, k-1) decoding rows per direction, one
    # column per (pivot point, derivative index, residual point)
    _check_guard(f"stacked decoding family over (Z/{spec.N})^{n} at k = {k}",
                 len(spec.dir_reps) * dim_leq(n, k - 1), p1**n * Delta * N0**n, guard)

    # point x owns table rows x·Delta onward, order-< k first: D[x] is D_x
    E = _pivot_eval_matrix(p1, n, m, d_hom, guard)
    D = E.a.reshape(p1**n, Delta, -1)[:, :dim_leq(n, k - 1)]
    bases, reps, rows0 = _split_witnesses(spec, pividx, idx)
    dir_idx = point_index(reps, spec1)
    # one decoder per distinct pivot line, in order of (base, rep) index
    _, first, decoder = np.unique(point_index(bases, spec1) * p1**n + dir_idx,
                                  return_index=True, return_inverse=True)
    Cs = _decoders(bases[first], reps[first], spec1, k, m, E)
    _check_product(E.rows, p1)
    decode_chain = np.array_equal(Cs @ E.a % p1, D[dir_idx[first]])

    crank_family = _tensor_rows_rank(p1, Cs, decoder, rows0)
    certified = math.ceil(crank_family / Delta)
    crank_D = rank(GFpMatrix(p1, D[point_index(spec1.dir_reps, spec1)].reshape(-1, E.cols)))
    crank_DL0 = _tensor_rows_rank(p1, D, dir_idx, rows0)
    min_crank_L0, min_union, rank_size_factor = _group_rank_sizes(p1, dir_idx, rows0, N0)
    bound0 = squarefree_bound(N0, n)
    union_bound_ok = Fraction(min_union) >= bound0
    final_rhs = delta_homog * bound0 / N0

    return BoundReport(
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


def _group_rank_sizes(p: int, pivots, rows: np.ndarray, modulus: int):
    """Over the groups of 0/1 residual rows of equal pivot (one hashable
    key per row): the least F_p rank, the least union size, and whether
    every group's rank is at least ⌈its union / modulus⌉.

    The rows are packed once.  A 0/1 row packs to one set bit per entry,
    bit j at p = 2 and byte j at odd p (for p >= 13 only the unions use
    them; the ranks take a GFpMatrix), so a group's union is the bit count
    of the OR of its ints."""
    groups: dict = {}
    for i, pivot in enumerate(pivots):
        groups.setdefault(pivot, []).append(i)
    ints = _pack_rows(rows, p)
    ranks, unions = [], []
    for group in groups.values():
        block = [ints[i] for i in group]
        ranks.append(rank(PackedRows(p, rows.shape[1], block) if _packs(p)
                          else GFpMatrix(p, rows[group])))
        unions.append(functools.reduce(operator.or_, block).bit_count())
    ok = all(r >= math.ceil(u / modulus) for r, u in zip(ranks, unions))
    return min(ranks), min(unions), ok


def _residual_rows(spec: RingSpec, pivot: int, pts: np.ndarray) -> np.ndarray:
    """(lines, (N/p)^n) bool rows, p the factor-`pivot` prime and pts the
    (lines, N, n) points of lines over (Z/N)^n with at least two primes.

    Reduced mod N0 = N/p, a line is the CRT product of its components other
    than the pivot, so its CRT-major 0/1 indicator over (Z/N0)^n is the
    Kronecker product of their indicators."""
    N0 = spec.N // spec.primes[pivot]
    spec0 = RingSpec.make(N0, spec.n)
    rows = np.zeros((len(pts), spec0.num_points), dtype=bool)
    cols = spec0.crt_order[point_index(pts % N0, spec0)]
    rows[np.arange(len(pts))[:, None], cols] = True
    return rows


def _split_witnesses(spec: RingSpec, pivot: int, idx: np.ndarray):
    """The pivot lines, as (D, n) tables of bases and reps, and the
    `_residual_rows` of the witness lines, one per direction in enumeration
    order, idx their `_witness_indices`: a witness line reduced mod the
    pivot prime is its pivot component line, based at its point of least
    index."""
    spec_p = spec.factor_specs()[pivot]
    comps = spec.dir_components[pivot]
    pts = spec.points[idx]
    return (_least_bases(pts[:, 0] % spec_p.N, comps, spec_p), comps,
            _residual_rows(spec, pivot, pts))


def _tensor_rows_rank(p: int, blocks: np.ndarray, which, rows: np.ndarray) -> int:
    """crank of the family kron(blocks[which[i]], rows[i]), blocks a stack
    of equal-shape matrices with entries in [0, p) and rows 0/1.

    Column (a, y) is zero in every member unless some used block is
    non-zero in column a and some row holds y, and dropping all-zero
    columns leaves the rank unchanged; so only those acols × ys columns
    are kept.  Where `rank` packs rows over F_p, each member row is built
    straight as its packed Python int, spread(a)·pack(y): spread(a) packs
    the block row a with entry j moved to field j·|ys| (kron(a, e_0)), and
    pack(y) packs the residual row over ys.  The product holds a_j·y_t in
    field j·|ys| + t, t < |ys|: one term per field, a residue times a bit,
    so no field carries.  spread is taken once per used block row and pack
    once per residual row, so no int64 family is built.  For p >= 13 the
    family is one C-ordered int64 array, written by one broadcast (a plain
    broadcast of the indexed operands is not C-ordered, and reshaping it
    would copy)."""
    used, slot = np.unique(which, return_inverse=True)
    acols = np.flatnonzero(blocks[used].any(axis=(0, 1)))
    ys = np.flatnonzero(rows.any(axis=0))
    F, r = len(which), blocks.shape[1]
    if _packs(p):
        used_rows = blocks[used][:, :, acols].reshape(used.size * r, acols.size)
        spread = _pack_rows(np.kron(used_rows, np.arange(ys.size) == 0), p)
        ints = [spread[u * r + i] * y
                for u, y in zip(slot.tolist(), _pack_rows(rows[:, ys], p))
                for i in range(r)]
        return rank(PackedRows(p, acols.size * ys.size, ints))
    family = np.empty((F, r, acols.size, ys.size), dtype=np.int64)
    np.multiply(blocks[:, :, acols][which, :, :, None], rows[:, None, None, ys], out=family)
    return rank(GFpMatrix(p, family.reshape(F * r, acols.size * ys.size)))


def certify_prime_power(
    S: KakeyaSet, guard: int = DEFAULT_CELL_GUARD
) -> BoundReport:
    """Prime-power certificate via the character-table (Fourier) product,
    q = p^k, with one row per unit orbit of (Z/q)^n.

    Each orbit holds one point x = p^j·b of `RingSpec.unit_orbits`, b a
    direction and j its valuation; the least such b is x/p^j, and the
    origin (j = k) takes the first direction.  Row x is the sub-progression
    {a + p^j·t·b} of b's witness line a + t·b, so it lies in S.  Its
    product with the character table must be p^{k-j}·γ^{<a, y>} where
    <x, y> = 0, and 0 elsewhere; AssertionError otherwise.  Every γ^e is
    non-zero, so the product's zero pattern is then W on one row per orbit,
    whose F_p rank is rank W.  The chain |S| >= rank_Q(M') = rank_Q(γ)(M'·F)
    >= rank_cyclo >= rank_Fp(W), M' the sub-progression rows and F the
    table, is re-verified with one F_ℓ image of the rows divided by p^{k-j}
    that reaches rank W.
    """
    spec = S.spec
    if not spec.is_prime_power:
        raise ValueError("prime-power pipeline requires N = p^k")
    witness = _require_valid(S)
    p, kk = spec.factors[0]
    q, n, pts = spec.N, spec.n, spec.points
    orbits, js = spec.unit_orbits
    x = pts[orbits]
    d = spec.dir_index[point_index(x // p ** js[:, None], spec)]
    d[js == kk] = 0
    # dft_product's exponent histogram (q points per row) is the largest
    # array: W's orbit rows have q^n cells each, q times fewer
    _check_guard(f"DFT exponent histogram of (Z/{q})^{n}", len(x) * q,
                 spec.num_points, guard)
    idx = witness[d]
    # row p^j·b: the points a + t·b of b's witness line at t in p^j·Z/q
    rows, t = np.nonzero(np.arange(q) % p ** js[:, None] == 0)
    M = np.zeros((len(x), spec.num_points), dtype=np.int64)
    M[rows, idx[rows, t]] = 1
    # the product row over p^{k-j}: γ^{<a, y>} on row p^j·b of W, else 0
    w_rows = x @ pts.T % q == 0
    powers = reduction_matrix(p, kk)[pts[idx[:, 0]] @ pts.T % q] * w_rows[..., None]
    if not np.array_equal(dft_product(M, spec), p ** (kk - js)[:, None, None] * powers):
        raise AssertionError("Fourier row identity failed (internal bug)")
    rank_W = rank(GFpMatrix(p, w_rows))
    rank_c = rank_cyclo(powers, p, kk, target=rank_W)
    return BoundReport(
        pipeline="prime-power",
        N=q,
        n=n,
        set_size=S.size,
        certified=rank_W,
        closed_form=None,
        quantities={"rank_W_pk_n": rank_W, "rank_cyclo": rank_c},
        checks={
            "dft_row_formula": True,
            "rank_transfer": rank_c >= rank_W,
            "soundness": rank_W <= S.size,
        },
    )
