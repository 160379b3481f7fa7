"""Point-hyperplane incidence matrices over Z/p^kZ, the complement-hyperplane
rows of the line-action identity, the rank formula for the prime case, and
matching-vector families as rank lower bounds.

The incidence matrix keeps its repeated rows and columns (one per ring
element, not per projective class), so row-set comparisons against
Fourier-derived matrices are literal; ranks are taken on
`incidence_quotient`, one row and column per unit orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import GuardExceeded, json_ints, malformed_input
from .gfp import GFpMatrix, is_prime, rank
from .rings import RingSpec, point_index

DEFAULT_CELL_GUARD = 16_000_000


def _check_guard(rows: int, cols: int, guard: int):
    if rows * cols > guard:
        raise GuardExceeded(
            f"matrix of {rows} x {cols} = {rows * cols} cells exceeds the "
            f"guard of {guard}"
        )


def incidence_matrix(p: int, n: int, guard: int = DEFAULT_CELL_GUARD) -> GFpMatrix:
    """The p^n x p^n matrix with entry (x, b) = 1 iff <x, b> = 0 mod p.

    Rows are points, columns are hyperplane indicators, both in natural
    mixed-radix order.  The matrix is symmetric.
    """
    return incidence_matrix_pk(p, 1, n, guard=guard)


def _check_ring(p: int, k: int, n: int):
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if k < 1 or n < 1:
        raise ValueError(f"k and n must be >= 1, got k = {k}, n = {n}")


def incidence_matrix_pk(
    p: int, k: int, n: int, guard: int = DEFAULT_CELL_GUARD
) -> GFpMatrix:
    """0/1 matrix over F_p with entry (x, y) = 1 iff <x, y> = 0 mod p^k."""
    _check_ring(p, k, n)
    q = p**k
    size = q**n
    _check_guard(size, size, guard)
    pts = RingSpec.make(q, n).points
    gram = pts @ pts.T % q
    return GFpMatrix(p, gram == 0)


def incidence_quotient(
    p: int, k: int, n: int, guard: int = DEFAULT_CELL_GUARD
) -> GFpMatrix:
    """W_{p^k,n} on one point per unit orbit, with the F_p rank of W.

    For a unit u of Z/qZ, <u·x, y> = 0 exactly when <x, y> = 0, so x and u·x
    have equal rows and columns (selftest `unit_scaling_fixes_rows`).  A
    point's orbit id is the least mixed-radix index of u·x over the units u;
    the rows are the points at the distinct ids, in increasing order.  The
    guard counts the q^n × n point table first, then the quotient;
    OverflowError if an id or an inner product could wrap int64.
    """
    _check_ring(p, k, n)
    q = p**k
    _check_guard(q**n, n, guard)
    if max(q**n, n * (q - 1) ** 2) >= 2**63:
        raise OverflowError(f"int64 arithmetic over (Z/{q})^{n} can wrap")
    spec = RingSpec.make(q, n)
    pts = spec.points
    ids = point_index(pts, spec)
    for u in range(2, q):
        if u % p:
            np.minimum(ids, point_index(u * pts % q, spec), out=ids)
    reps = pts[np.unique(ids)]
    _check_guard(len(reps), len(reps), guard)
    return GFpMatrix(p, reps @ reps.T % q == 0)


def hyperplane_indicator(b, spec: RingSpec) -> np.ndarray:
    """0/1 row of [<x, b> = 0 mod N] over points in natural order."""
    bv = np.array([c % spec.N for c in b], dtype=np.int64)
    return (spec.points @ bv % spec.N == 0).astype(np.int64)


def complement_indicator(b, spec: RingSpec) -> np.ndarray:
    """0/1 row of [<x, b> != 0 mod N] over points in natural order."""
    return 1 - hyperplane_indicator(b, spec)


def rank_formula(p: int, n: int) -> int:
    """Closed-form F_p-rank of the prime incidence matrix."""
    return math.comb(p + n - 2, n - 1) + 1


def rank_formula_check(
    p: int, n: int, guard: int = DEFAULT_CELL_GUARD
) -> tuple[int, int, bool]:
    """Computed rank of the prime incidence matrix against the closed form."""
    computed = rank(incidence_quotient(p, 1, n, guard=guard))
    formula = rank_formula(p, n)
    return computed, formula, computed == formula


@dataclass(frozen=True)
class MVFamily:
    """A matching-vector family over (Z/qZ)^n, q = p^k.

    U and V have equal length and <u_i, v_j> = 0 mod q exactly when i = j.
    """

    p: int
    k: int
    n: int
    U: tuple
    V: tuple

    @property
    def modulus(self) -> int:
        return self.p**self.k

    @property
    def size(self) -> int:
        return len(self.U)


def mv_from_json_dict(data: dict) -> MVFamily:
    """Load a matching-vector family in the form ``mv search`` writes.

    Raises VerificationError when a key is missing, a value is not an
    integer, a vector has the wrong length, p < 2, k < 1, n < 1, or U and
    V differ in length.
    """
    with malformed_input("matching-vector family"):
        p, k, n = json_ints([data["p"], data["k"], data["n"]], 3, "p, k, n")
        if p < 2 or k < 1 or n < 1:
            raise ValueError(f"p, k, n = {p}, {k}, {n}: need p >= 2, "
                             "k >= 1 and n >= 1")
        U = tuple(json_ints(u, n, "vector u") for u in data["U"])
        V = tuple(json_ints(v, n, "vector v") for v in data["V"])
        if len(U) != len(V):
            raise ValueError(f"{len(U)} vectors u against {len(V)} vectors v")
    return MVFamily(p=p, k=k, n=n, U=U, V=V)


def mv_violations(fam: MVFamily) -> list[tuple[int, int, int]]:
    """All (i, j, <u_i, v_j> mod q) breaking the matching-vector property."""
    q = fam.modulus
    bad = []
    for i, u in enumerate(fam.U):
        for j, v in enumerate(fam.V):
            ip = sum(a * b for a, b in zip(u, v)) % q
            if (ip == 0) != (i == j):
                bad.append((i, j, ip))
    return bad


def mv_verify(fam: MVFamily) -> bool:
    """True iff the matching-vector property holds."""
    if len(fam.U) != len(fam.V):
        return False
    return not mv_violations(fam)


def mv_rank_bound(fam: MVFamily) -> int:
    """Family size: a lower bound on the incidence-matrix rank over any field."""
    if not mv_verify(fam):
        raise ValueError(f"not a matching-vector family: {mv_violations(fam)[:3]}")
    return fam.size


def mv_search(
    p: int, k: int, n: int, target_size: int, budget: int = 200_000
) -> tuple[MVFamily, int]:
    """Deterministic backtracking search for a matching-vector family.

    Scans candidate (u, v) pairs in lexicographic order, depth-first, and
    stops at target_size or when the node budget runs out.  Inner products
    are looked up, not recomputed: orth[i][j] says whether vectors i and j
    are orthogonal mod q, tabulated once before the scan.  Returns the best
    family found and the number of nodes visited.  Never errors on an
    unreachable target; the best-found family is returned instead.  Raises
    ValueError for a p that is not prime, k < 1 or n < 1.
    """
    _check_ring(p, k, n)
    if budget <= 0:
        raise ValueError("budget must be positive")
    q = p**k
    vectors = list(product(range(q), repeat=n))
    if target_size >= 2:
        # a zero vector forces a zero inner product off the diagonal, so it
        # cannot appear in any family of size >= 2
        vectors = [v for v in vectors if any(v)]
    m = len(vectors)
    X = np.array(vectors, dtype=np.int64).reshape(m, n)
    orth = (X @ X.T % q == 0).tolist()
    nodes = 0
    best: list[tuple] = []

    def dfs(us, vs, start):
        # us, vs index the family's vectors; reordering a family preserves
        # the property, so pairs are scanned in non-decreasing position only
        nonlocal nodes, best
        if len(us) > len(best):
            best = list(zip(us, vs))
        if len(us) >= target_size or nodes >= budget:
            return len(us) >= target_size
        for idx in range(start, m * m):
            if nodes >= budget:
                return False
            nodes += 1
            i, j = divmod(idx, m)
            if (orth[i][j] and not any(orth[i][b] for b in vs)
                    and not any(orth[a][j] for a in us)):
                if dfs(us + [i], vs + [j], idx + 1):
                    return True
        return False

    dfs([], [], 0)
    U = tuple(vectors[i] for i, _ in best)
    V = tuple(vectors[j] for _, j in best)
    fam = MVFamily(p=p, k=k, n=n, U=U, V=V)
    if not mv_verify(fam):
        raise AssertionError("search produced an invalid family")
    return fam, nodes
