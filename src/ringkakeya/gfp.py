"""Exact dense linear algebra over prime fields F_p.

Matrices are stored as int64 numpy arrays with entries canonical in [0, p);
residues are reduced once, when a GFpMatrix is built, and every kernel
trusts `.a`.  `rank` is the one way to take a rank over F_p, and it picks
one of three kernels by p.  For p >= 13 the rank is the pivot count of
`_echelon`.  For p = 2 and for 3 <= p <= 11, the primes whose elimination
fits int8, the rows are packed to Python ints, one bit (p = 2) or one byte
per entry, and reduced against a basis keyed by leading field:
`_gf2_basis_size` XORs bitmasks, `_packed_basis_size` adds field-wise mod p
on whole ints.  The p = 2 loop stays apart because XOR needs no table of
multiples: one shared loop with XOR as its sum ranked the GF(2) matrices of
the crt-10^3 certificates and the rank-tables W matrices 2.6 times slower
(1.81 → 4.73 ms on an Intel Xeon).  `rank` also takes rows that were never
an array, as `PackedRows`: a Kronecker row kron(a, y), y a 0/1 row of width
s, packs to spread(a)·pack(y), where spread(a) puts entry j of a in field
j·s.  The product is the sum of a_j·y_t in field j·s + t over t < s, one
term per field, each below p, so no field carries into the next and no
int64 family needs to be built.
`_echelon`, the rank-only elimination kernel, also gives, through the F_ℓ
images of `cyclo.rank_cyclo`, the exact ranks over Q and Q(γ).  Every row
factorization goes through `_row_factors`, which eliminates a stack of
(source, target) pairs column by column at once; `solve_row_factor` is its
one-pair case.  Both use one fixed pivot rule (first non-zero entry
scanning columns left to right, rows top to bottom) so echelon forms,
ranks and factors are reproducible bit for bit, and both work in the
narrowest signed integer type that holds (p - 1)^2: int8 for p <= 11,
int16 for p <= 181, int32 for p <= 46337, int64 above.  Products or
eliminations whose int64 arithmetic could wrap raise OverflowError.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import DEFAULT_CELL_GUARD, RowFactorError, _check_guard
from .rings import _prime_powers


@functools.cache
def is_prime(m: int) -> bool:
    """Whether m is prime: whether `rings._prime_powers` yields m first.
    A composite is rejected at its first factor below 2^22, so only an m
    the division cannot settle raises its GuardExceeded, which later calls
    replay without dividing again."""
    return m >= 2 and next(_prime_powers(m)) == (m, 1)


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
        _check_product(self.cols, self.p)
        return GFpMatrix(self.p, self.a @ other.a % self.p)

    def transpose(self) -> "GFpMatrix":
        return GFpMatrix(self.p, self.a.T)

    def __repr__(self) -> str:
        return f"GFpMatrix(p={self.p}, shape={self.a.shape})"


def _check_product(inner: int, p: int):
    """OverflowError where an int64 product over F_p with this inner
    dimension could wrap."""
    if inner * (p - 1) ** 2 >= 2**63:
        raise OverflowError(
            f"a product with inner dimension {inner} over F_{p} can wrap int64"
        )


def _work_type(p: int):
    """The narrowest signed integer type that holds (p - 1)^2.

    Each elimination step multiplies two residues and subtracts the product
    from a residue, so every intermediate lies within (p - 1)^2 of zero.
    """
    for t in (np.int8, np.int16, np.int32, np.int64):
        if (p - 1) ** 2 <= np.iinfo(t).max:
            return t
    raise OverflowError(f"elimination over F_{p} can wrap int64")


def _echelon(a: np.ndarray, p: int) -> int:
    """Rank mod p of a, entries in [0, p): the pivot count of its row
    echelon form with unit pivots, reduced in a copy of the working type
    `_work_type(p)`.  Each pivot clears its column in the rows below it
    only; rows above are untouched.
    """
    E = a.astype(_work_type(p), order="C")
    m, n = E.shape
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
        E[r, c:] = E[r, c:] * pow(int(E[r, c]), -1, p) % p
        below = r + 1 + E[r + 1 :, c].nonzero()[0]
        if below.size:
            # fancy indexing copies the multipliers before E changes
            f = E[below, c]
            E[below, c:] = (E[below, c:] - f[:, None] * E[r, c:]) % p
        r += 1
    return r


def _row_factors(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """C, int64 (L, k, m), with C[i] @ A[i] = B[i] mod p for the int64
    stacks A, (L, m, n), and B, (L, k, n), entries in [0, p).

    Every member's [A | I_m ; B | 0] is eliminated at once, column by
    column, by `_echelon`'s rule with pivots from A's rows, so B's rows end
    as [residual | -C], C fixed by the pivot rows.  A step updates only the
    rows non-zero in its column in some member, and only columns >= c.  A
    non-zero residual raises RowFactorError naming the member; C is
    re-verified.
    """
    L, m, n = A.shape
    t = _work_type(p)
    S = np.zeros((L, m + B.shape[1], n + m), dtype=t)
    S[:, :m, :n], S[:, m:, :n] = A, B
    S[:, np.arange(m), n + np.arange(m)] = 1
    # below[i, j]: row j of member i is a B row or an A row no pivot took
    below = np.ones(S.shape[:2], dtype=bool)
    r = np.zeros(L, dtype=np.intp)
    for c in range(n):
        col = S[:, :, c]
        cand = (col[:, :m] != 0) & below[:, :m]
        live = cand.any(axis=1).nonzero()[0]
        if not live.size:
            continue
        top, piv = r[live], cand[live].argmax(axis=1)
        P = S[live, piv, c:]
        lead = P[:, 0].tolist()
        if any(v != 1 for v in lead):
            inv = {v: pow(v, -1, p) for v in set(lead)}
            P = P * np.array([inv[v] for v in lead], dtype=t)[:, None] % p
        S[live, piv, c:] = S[live, top, c:]
        S[live, top, c:] = P
        below[live, top] = False
        f = col[live] * below[live]
        hit = f.any(axis=0).nonzero()[0]
        block = (live[:, None], hit, slice(c, None))
        S[block] = (S[block] - f[:, hit, None] * P[:, None]) % p
        r[live] += 1
    bad = np.argwhere(S[:, m:, :n].any(axis=2)).tolist()
    if bad:
        i, j = bad[0]
        raise RowFactorError(f"row {j} of target {i} is not in the row space of source {i}", i)
    C = -S[:, m:, n:].astype(np.int64) % p
    _check_product(m, p)
    if not np.array_equal(C @ A % p, B):
        raise AssertionError("row factorization failed verification")
    return C


def _bitmasks(rows: np.ndarray) -> list[int]:
    """Each 0/1 row as a Python-int bitmask, bit j set iff entry j is
    non-zero (packed little-endian, so no shift overflows int64)."""
    packed = np.packbits(rows != 0, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _pack_rows(a: np.ndarray, p: int) -> list[int]:
    """Each row of a, entries in [0, p) and below 256, as one Python int:
    entry j in bit j for p = 2 (`_bitmasks`), in byte j else.  `rank`
    takes such rows at p = 2 and 3 <= p <= 11."""
    if p == 2:
        return _bitmasks(a)
    width = a.shape[1]
    packed = a.astype(np.uint8).tobytes()
    return [int.from_bytes(packed[i * width:(i + 1) * width], "little")
            for i in range(a.shape[0])]


class PackedRows(NamedTuple):
    """The rows of a matrix over F_p, p = 2 or 3 <= p <= 11, as
    `_pack_rows` packs them; `rank` takes them as it takes a GFpMatrix."""

    p: int
    cols: int
    ints: list[int]

    @property
    def rows(self) -> int:
        return len(self.ints)


def _gf2_basis_size(rows) -> int:
    """Rank over GF(2) of the bitmask rows: the size of an XOR basis.

    Each row is XORed with the basis row of its leading bit until it is
    zero or its leading bit is new, and then joins the basis under that
    bit.  Basis rows have distinct leading bits, so they are independent,
    and every row is a sum of basis rows, so they span the rows.
    """
    basis: dict[int, int] = {}
    for x in rows:
        while x:
            top = x.bit_length()
            b = basis.get(top)
            if b is None:
                basis[top] = x
                break
            x ^= b
    return len(basis)


def _packed_basis_size(rows, width: int, p: int) -> int:
    """Rank over F_p, 3 <= p <= 11, of the rows packed one byte per entry
    (width entries each): the size of a basis, the odd-p analogue of
    `_gf2_basis_size`.

    A row joins the basis under its leading field (its highest non-zero
    byte) when no basis row has that leading field, together with its p
    multiples indexed by their leading coefficients.  Otherwise, α its
    leading coefficient, it is replaced by its sum with the multiple of
    coefficient p − α, which clears that field, until it is zero or its
    leading field is new.  Basis rows have distinct leading fields, so they
    are independent, and every row is a combination of basis rows, so they
    span the rows.

    The field-wise sum mod p needs no loop over fields: entries are below
    p, so a sum of two is at most 2p − 2 <= 20, and adding 128 − p to a
    field sets its bit 7 exactly when the field is at least p; p is then
    taken off those fields.  No step carries into the next byte.
    """
    ones = int.from_bytes(b"\x01" * width, "little")
    high, guard = ones << 7, (128 - p) * ones

    def add(x: int, y: int) -> int:
        s = x + y
        return s - (((s + guard) & high) >> 7) * p

    basis: dict[int, list[int]] = {}
    for x in rows:
        while x:
            top = (x.bit_length() - 1) >> 3
            alpha = x >> (top << 3)
            mult = basis.get(top)
            if mult is None:
                # the multiple c·x has leading coefficient c·α mod p
                mult, cx = [0] * p, x
                for c in range(1, p):
                    mult[c * alpha % p] = cx
                    cx = add(cx, x)
                basis[top] = mult
                break
            x = add(x, mult[p - alpha])
    return len(basis)


def _packs(p: int) -> bool:
    """Whether `rank` takes packed rows over F_p: p = 2, or an odd p whose
    elimination fits int8, 3 <= p <= 11."""
    return p == 2 or _work_type(p) is np.int8


def rank(M: GFpMatrix | PackedRows) -> int:
    """Rank over F_p: the one entry point, which picks the kernel by p.

    For p >= 13 it is the number of pivots of `_echelon`.  Otherwise a
    GFpMatrix is packed by `_pack_rows`, and the packed rows, these or
    PackedRows as given, go to `_gf2_basis_size` at p = 2 and to
    `_packed_basis_size` at 3 <= p <= 11.
    """
    if not _packs(M.p):
        return _echelon(M.a, M.p)
    if isinstance(M, GFpMatrix):
        M = PackedRows(M.p, M.cols, _pack_rows(M.a, M.p))
    if M.p == 2:
        return _gf2_basis_size(M.ints)
    return _packed_basis_size(M.ints, M.cols, M.p)


def kron(A: GFpMatrix, B: GFpMatrix) -> GFpMatrix:
    """Kronecker product; pair (r1, r2) flattens to r1 * rows(B) + r2.
    GuardExceeded before anything is built past the default cell guard."""
    if A.p != B.p:
        raise ValueError("characteristic mismatch")
    _check_guard(f"Kronecker product over F_{A.p}", A.rows * B.rows,
                 A.cols * B.cols, DEFAULT_CELL_GUARD)
    return GFpMatrix(A.p, np.kron(A.a, B.a) % A.p)


def solve_row_factor(A: GFpMatrix, B: GFpMatrix) -> GFpMatrix:
    """Return C with C @ A = B, or raise RowFactorError: `_row_factors` on
    one pair.  Requires every row of B to lie in the row space of A."""
    if A.p != B.p:
        raise ValueError("characteristic mismatch")
    if A.cols != B.cols:
        raise ValueError("column count mismatch")
    return GFpMatrix(A.p, _row_factors(A.a[None], B.a[None], A.p)[0])
