"""Exact dense linear algebra over prime fields F_p.

Matrices are stored as int64 numpy arrays with entries canonical in [0, p).
One elimination kernel, `_echelon`, gives every rank, row factorization and
kernel; it uses a fixed pivot rule (first non-zero entry scanning columns
left to right, rows top to bottom) so echelon forms and ranks are
reproducible bit for bit.  The one fork is a bit-packed rank for p = 2,
differentially tested against the kernel.  Products whose int64 sums could
wrap raise OverflowError.
"""

from __future__ import annotations

import numpy as np

from .errors import RowFactorError


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


class GFpMatrix:
    """Dense matrix over F_p with entries in [0, p)."""

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        self.a = a % p

    @classmethod
    def identity(cls, p: int, size: int) -> "GFpMatrix":
        return cls(p, np.eye(size, dtype=np.int64))

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "GFpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GFpMatrix)
            and self.p == other.p
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __matmul__(self, other: "GFpMatrix") -> "GFpMatrix":
        if self.p != other.p:
            raise ValueError("characteristic mismatch")
        if self.cols * (self.p - 1) ** 2 >= 2**63:
            raise OverflowError(
                f"a product with inner dimension {self.cols} over F_{self.p} "
                "can wrap int64"
            )
        return GFpMatrix(self.p, self.a @ other.a % self.p)

    def transpose(self) -> "GFpMatrix":
        return GFpMatrix(self.p, self.a.T)

    def rank(self) -> int:
        return rank(self)

    def __repr__(self) -> str:
        return f"GFpMatrix(p={self.p}, shape={self.a.shape})"


def _rank_gf2(M: np.ndarray) -> int:
    """GF(2) rank via python-int bit rows (column c = bit c)."""
    rows = [
        int.from_bytes(
            np.packbits((r % 2).astype(np.uint8), bitorder="little").tobytes(),
            "little",
        )
        for r in M
    ]
    rank_ = 0
    for c in range(M.shape[1]):
        bit = 1 << c
        piv = None
        for i in range(rank_, len(rows)):
            if rows[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        rows[rank_], rows[piv] = rows[piv], rows[rank_]
        for i in range(rank_ + 1, len(rows)):
            if rows[i] & bit:
                rows[i] ^= rows[rank_]
        rank_ += 1
        if rank_ == len(rows):
            break
    return rank_


def _echelon(a: np.ndarray, p: int, track: bool = False):
    """Row echelon form mod p with unit pivots.

    Returns (E, pivots) or (E, pivots, R) with R @ a = E when track is set.
    pivots is a list of (row, col) pairs in elimination order.  Each pivot
    clears its column in the rows below it only; rows above are untouched.
    """
    # each step multiplies two residues and subtracts the product from a
    # residue, so every intermediate lies within (p - 1)^2 of zero
    if (p - 1) ** 2 >= 2**63:
        raise OverflowError(f"elimination over F_{p} can wrap int64")
    E = a % p
    m, n = E.shape
    R = np.eye(m, dtype=np.int64) if track else None
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(E[r:, c])
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            E[[r, piv]] = E[[piv, r]]
            if track:
                R[[r, piv]] = R[[piv, r]]
        inv = pow(int(E[r, c]), -1, p)
        E[r, c:] = E[r, c:] * inv % p
        if track:
            R[r] = R[r] * inv % p
        below = r + 1 + np.flatnonzero(E[r + 1 :, c])
        if below.size:
            # fancy indexing copies the multipliers before E changes
            f = E[below, c]
            E[below, c:] = (E[below, c:] - np.outer(f, E[r, c:])) % p
            if track:
                R[below] = (R[below] - np.outer(f, R[r])) % p
        pivots.append((r, c))
        r += 1
    if track:
        return E, pivots, R
    return E, pivots


def rank(M: GFpMatrix) -> int:
    """Rank over F_p: the number of pivots of the echelon form."""
    if M.rows == 0 or M.cols == 0:
        return 0
    if M.p == 2:
        return _rank_gf2(M.a)
    return len(_echelon(M.a, M.p)[1])


def rank_generic(M: GFpMatrix) -> int:
    """Generic elimination path regardless of p (for differential tests)."""
    _, pivots = _echelon(M.a, M.p)
    return len(pivots)


def kron(A: GFpMatrix, B: GFpMatrix) -> GFpMatrix:
    """Kronecker product; pair (r1, r2) flattens to r1 * rows(B) + r2."""
    if A.p != B.p:
        raise ValueError("characteristic mismatch")
    return GFpMatrix(A.p, np.kron(A.a, B.a) % A.p)


def stack(members) -> GFpMatrix:
    """Vertical concatenation of equal-width matrices sharing p."""
    members = list(members)
    if not members:
        raise ValueError("empty family")
    p = members[0].p
    cols = members[0].cols
    for m in members:
        if m.p != p:
            raise ValueError("characteristic mismatch in family")
        if m.cols != cols:
            raise ValueError("column count mismatch in family")
    return GFpMatrix(p, np.vstack([m.a for m in members]))


def crank(members) -> int:
    """Rank of the vertical concatenation of a family of matrices.

    Equals the dimension of the span of all member rows.
    """
    return rank(stack(members))


def solve_row_factor(A: GFpMatrix, B: GFpMatrix) -> GFpMatrix:
    """Return C with C @ A = B, or raise RowFactorError.

    Requires every row of B to lie in the row space of A.  The product is
    re-verified before returning.
    """
    if A.p != B.p:
        raise ValueError("characteristic mismatch")
    if A.cols != B.cols:
        raise ValueError("column count mismatch")
    p = A.p
    E, pivots, R = _echelon(A.a, p, track=True)
    C = np.zeros((B.rows, A.rows), dtype=np.int64)
    for i in range(B.rows):
        residual = B.a[i].copy()
        coeff = np.zeros(A.rows, dtype=np.int64)
        for r, c in pivots:
            f = int(residual[c])
            if f:
                coeff[r] = f
                residual = (residual - f * E[r]) % p
        if residual.any():
            raise RowFactorError(
                f"row {i} of the target is not in the row space of the source"
            )
        C[i] = coeff @ R % p
    Cm = GFpMatrix(p, C)
    if Cm @ A != B:
        raise AssertionError("row factorization failed verification")
    return Cm


def nullspace(M: GFpMatrix) -> GFpMatrix:
    """Basis of the right kernel of M, one basis vector per row."""
    p = M.p
    E, pivots = _echelon(M.a, p)
    # back-substitution turns the echelon form into the reduced one
    for r, c in reversed(pivots):
        E[:r] = (E[:r] - np.outer(E[:r, c], E[r])) % p
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(M.cols) if c not in pivot_cols]
    basis = np.zeros((len(free_cols), M.cols), dtype=np.int64)
    for k, fc in enumerate(free_cols):
        basis[k, fc] = 1
        for r, c in pivots:
            basis[k, c] = (-int(E[r, fc])) % p
    return GFpMatrix(p, basis)


def tensor_family_rank_check(V: GFpMatrix, families) -> bool:
    """Check dim span{v_i ⊗ y : y a row of families[i]} >= n*k.

    V's rows must be linearly independent; k is the smallest family rank.
    """
    families = list(families)
    if V.rows != len(families):
        raise ValueError("one family is required per row of V")
    if rank(V) != V.rows:
        raise ValueError("rows of V are not linearly independent")
    k = min(rank(B) for B in families)
    rows = []
    for i, B in enumerate(families):
        if B.p != V.p:
            raise ValueError("characteristic mismatch")
        for j in range(B.rows):
            rows.append(np.kron(V.a[i], B.a[j]) % V.p)
    dim = rank(GFpMatrix(V.p, np.array(rows, dtype=np.int64)))
    return dim >= V.rows * k


def rank_rational(data) -> int:
    """Exact rank over the rationals by fraction-free (Bareiss) elimination
    on Python ints.

    After each pivot the entries below it are minors of the input, and the
    division by the previous pivot is exact (Bareiss 1968).
    """
    A = [[int(x) for x in row] for row in np.asarray(data)]
    m = len(A)
    n = len(A[0]) if m else 0
    prev = 1
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if A[i][c]:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pivot, top = A[r][c], A[r][c + 1 :]
        for i in range(r + 1, m):
            head = A[i][c]
            A[i][c + 1 :] = [
                (pivot * x - head * y) // prev for x, y in zip(A[i][c + 1 :], top)
            ]
        prev = pivot
        r += 1
        if r == m:
            break
    return r
