"""Exact dense linear algebra over prime fields F_p.

Matrices are stored as int64 numpy arrays with entries canonical in [0, p);
residues are reduced once, when a GFpMatrix is built, and every kernel
trusts `.a`.  One elimination kernel, `_echelon`, gives every rank, row
factorization and kernel for every p, with no fork; through the F_ℓ images
of `cyclo.rank_cyclo` it gives the exact ranks over Q and Q(γ) too.  It
uses a fixed pivot rule (first non-zero entry scanning columns left to
right, rows top to bottom) so echelon forms and ranks are reproducible bit
for bit.  It works on one copy of its input in the narrowest signed integer
type that holds (p - 1)^2: int8 for p <= 11, int16 for p <= 181, int32 for
p <= 46337, int64 above.  Products or eliminations whose int64 arithmetic
could wrap raise OverflowError.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import RowFactorError


@functools.cache
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
    """Dense matrix over F_p with entries in [0, p).

    An int64 array whose entries already lie in [0, p) is kept as it is, so
    the matrix shares that buffer with the caller; any other input is
    converted to int64 and reduced mod p.
    """

    __slots__ = ("p", "a")

    def __init__(self, p: int, data):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        a = np.asarray(data, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        if a.size and (a.min() < 0 or a.max() >= p):
            a = a % p
        self.a = a

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

    def __repr__(self) -> str:
        return f"GFpMatrix(p={self.p}, shape={self.a.shape})"


def _work_type(p: int):
    """The narrowest signed integer type that holds (p - 1)^2.

    Each elimination step multiplies two residues and subtracts the product
    from a residue, so every intermediate lies within (p - 1)^2 of zero.
    """
    for t in (np.int8, np.int16, np.int32, np.int64):
        if (p - 1) ** 2 <= np.iinfo(t).max:
            return t
    raise OverflowError(f"elimination over F_{p} can wrap int64")


def _echelon(a: np.ndarray, p: int, track: bool = False):
    """Row echelon form mod p with unit pivots, of a with entries in [0, p).

    Returns (E, pivots) or (E, pivots, R) with R @ a = E when track is set;
    E and R are in the working type `_work_type(p)`.  pivots is a list of
    (row, col) pairs in elimination order.  Each pivot clears its column in
    the rows below it only; rows above are untouched.
    """
    t = _work_type(p)
    E = a.astype(t, order="C")
    m, n = E.shape
    R = np.eye(m, dtype=t) if track else None
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = E[r:, c].nonzero()[0]
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
        below = r + 1 + E[r + 1 :, c].nonzero()[0]
        if below.size:
            # fancy indexing copies the multipliers before E changes
            f = E[below, c]
            E[below, c:] = (E[below, c:] - f[:, None] * E[r, c:]) % p
            if track:
                R[below] = (R[below] - f[:, None] * R[r]) % p
        pivots.append((r, c))
        r += 1
    if track:
        return E, pivots, R
    return E, pivots


def rank(M: GFpMatrix) -> int:
    """Rank over F_p: the number of pivots of the echelon form."""
    return len(_echelon(M.a, M.p)[1])


def kron(A: GFpMatrix, B: GFpMatrix) -> GFpMatrix:
    """Kronecker product; pair (r1, r2) flattens to r1 * rows(B) + r2."""
    if A.p != B.p:
        raise ValueError("characteristic mismatch")
    return GFpMatrix(A.p, np.kron(A.a, B.a) % A.p)


def crank(members) -> int:
    """Rank of the vertical concatenation of a family of equal-width
    matrices sharing p: the dimension of the span of all member rows."""
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
    return rank(GFpMatrix(p, np.vstack([m.a for m in members])))


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
    # reduce every row of B against the pivots at once; row i of coeff
    # holds the multiple of each pivot row taken off row i of the residual
    residual = B.a.astype(E.dtype)
    coeff = np.zeros((B.rows, A.rows), dtype=np.int64)
    for r, c in pivots:
        hit = np.flatnonzero(residual[:, c])
        if hit.size:
            f = residual[hit, c]
            coeff[hit, r] = f
            residual[hit, c:] = (residual[hit, c:] - np.outer(f, E[r, c:])) % p
    bad = np.flatnonzero(residual.any(axis=1))
    if bad.size:
        raise RowFactorError(
            f"row {bad[0]} of the target is not in the row space of the source"
        )
    Cm = GFpMatrix(p, coeff @ R % p)
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
