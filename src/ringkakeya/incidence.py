"""Point-hyperplane incidence matrices over Z/p^kZ, the complement-hyperplane
rows of the line-action identity, the rank formula for the prime case, and
matching-vector families as rank lower bounds.

The incidence matrix keeps its repeated rows and columns (one per ring
element, not per projective class), so row-set comparisons against
Fourier-derived matrices are literal; ranks are taken on
`incidence_quotient`, one row and column per unit orbit.

`mv_search` scans on bitmasks: one Python int per orthogonality-table row,
two masks per search frame for the u's and v's still allowed, and a jump
to the next admissible pair that books each skipped pair as one node.
Every builder checks a cell guard first and names itself when it refuses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DEFAULT_CELL_GUARD, _check_guard, json_ints, malformed_input
from .gfp import GFpMatrix, _bitmasks, is_prime
from .rings import RingSpec


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
    _check_guard(f"incidence matrix W_{{{q},{n}}}", size, size, guard)
    pts = RingSpec.make(q, n).points
    gram = pts @ pts.T % q
    return GFpMatrix(p, gram == 0)


def incidence_quotient(
    p: int, k: int, n: int, guard: int = DEFAULT_CELL_GUARD
) -> GFpMatrix:
    """W_{p^k,n} on one point per unit orbit, with the F_p rank of W.

    For a unit u of Z/qZ, <u·x, y> = 0 exactly when <x, y> = 0, so x and u·x
    have equal rows and columns (selftest `unit_scaling_fixes_rows`).  The
    rows are the orbit points p^j·b of `RingSpec.unit_orbits`, in natural
    order.  The guard counts the q^n × n point table first, then the
    quotient; OverflowError if an index or an inner product could wrap int64.
    """
    _check_ring(p, k, n)
    q = p**k
    _check_guard(f"point table of (Z/{q})^{n}", q**n, n, guard)
    if max(q**n, n * (q - 1) ** 2) >= 2**63:
        raise OverflowError(f"int64 arithmetic over (Z/{q})^{n} can wrap")
    spec = RingSpec.make(q, n)
    reps = spec.points[spec.unit_orbits[0]]
    _check_guard(f"unit-orbit quotient of W_{{{q},{n}}}", len(reps), len(reps),
                 guard)
    return GFpMatrix(p, reps @ reps.T % q == 0)


def complement_indicator(b, spec: RingSpec) -> np.ndarray:
    """0/1 row of [<x, b> != 0 mod N] over points in natural order."""
    bv = np.array([c % spec.N for c in b], dtype=np.int64)
    return (spec.points @ bv % spec.N != 0).astype(np.int64)


def rank_formula(p: int, n: int) -> int:
    """Closed-form F_p-rank of the prime incidence matrix."""
    return math.comb(p + n - 2, n - 1) + 1


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


def mv_search(
    p: int, k: int, n: int, target_size: int, budget: int = 200_000,
    guard: int = DEFAULT_CELL_GUARD,
) -> tuple[MVFamily, int]:
    """Deterministic backtracking search for a matching-vector family.

    Scans the m^2 candidate pairs (u_i, v_j) in row-major order, depth-first,
    and stops at target_size or when the node budget runs out; each pair
    the scan passes is one node.  orth[i] is a bitmask, bit j set iff
    <x_i, x_j> = 0 mod q.  A frame keeps rows, the u's no member's v is
    orthogonal to, and cols, the v's no member's u is orthogonal to; adding
    (i, j) leaves rows & ~orth[j] and cols & ~orth[i] (orth is symmetric).
    From position idx a frame jumps to the next admissible pair found: it
    is examined iff nodes + (found - idx) < budget and costs found - idx + 1
    nodes; otherwise the frame ends with nodes = min(budget, nodes + m^2 -
    idx).  Family and node count are those of testing pairs one by one.

    Returns the best family found and the number of nodes visited; an
    unreachable target is not an error.  Raises ValueError for a p that is
    not prime, k < 1 or n < 1, and GuardExceeded, before any vector is
    listed, when the q^n x q^n orthogonality table passes guard cells.
    """
    _check_ring(p, k, n)
    if budget <= 0:
        raise ValueError("budget must be positive")
    q = p**k
    _check_guard(f"orthogonality table of (Z/{q})^{n}", q**n, q**n, guard)
    vectors = list(product(range(q), repeat=n))
    if target_size >= 2:
        # a zero vector forces a zero inner product off the diagonal, so it
        # cannot appear in any family of size >= 2
        vectors = [v for v in vectors if any(v)]
    m = len(vectors)
    X = np.array(vectors, dtype=np.int64).reshape(m, n)
    orth = _bitmasks(X @ X.T % q == 0)
    end = m * m
    nodes = 0
    path: list[tuple[int, int]] = []
    best: list[tuple[int, int]] = []

    def next_pair(rows, cols, idx):
        # the first admissible pair at or after idx in row-major order, or end
        i, j = divmod(idx, m)
        if rows >> i & 1:
            hits = (orth[i] & cols) >> j
            if hits:
                return idx + (hits & -hits).bit_length() - 1
        rest = rows >> (i + 1)
        while rest:
            step = (rest & -rest).bit_length()
            i += step
            rest >>= step
            hits = orth[i] & cols
            if hits:
                return i * m + (hits & -hits).bit_length() - 1
        return end

    def dfs(rows, cols, idx):
        # reordering a family preserves the property, so pairs are scanned
        # in non-decreasing position only
        nonlocal nodes, best
        if len(path) > len(best):
            best = path.copy()
        if len(path) >= target_size or nodes >= budget:
            return len(path) >= target_size
        while True:
            found = next_pair(rows, cols, idx)
            if found == end or nodes + (found - idx) >= budget:
                nodes = min(budget, nodes + (end - idx))
                return False
            nodes += found - idx + 1
            i, j = divmod(found, m)
            path.append((i, j))
            if dfs(rows & ~orth[j], cols & ~orth[i], found + 1):
                return True
            path.pop()
            idx = found + 1

    everything = (1 << m) - 1
    dfs(everything, everything, 0)
    U = tuple(vectors[i] for i, _ in best)
    V = tuple(vectors[j] for _, j in best)
    fam = MVFamily(p=p, k=k, n=n, U=U, V=V)
    if not mv_verify(fam):
        raise AssertionError("search produced an invalid family")
    return fam, nodes
