"""Arithmetic over the cyclotomic field Q(γ), γ a primitive p^k-th root
of unity, and the rank-transfer comparison down to F_p.

`CycloElement` holds a polynomial in γ with rational coefficients, reduced
modulo the minimal polynomial m(x) = (x^{p^k} - 1)/(x^{p^{k-1}} - 1), so
the representation of each field element is unique; `CycloMatrix` and
`cyclo_rank` on it are the exact reference.  Fast paths keep elements of
Z[γ] as integer coefficient vectors in the basis 1, γ, ..., γ^{φ-1}
(`reduction_matrix` writes γ^e in that basis).

Ranks are certified modularly.  For a prime ℓ ≡ 1 (mod p^k) and ω of
order exactly p^k in F_ℓ, γ ↦ ω is a ring map from Z[γ] (with denominators
prime to ℓ) onto F_ℓ, so a non-zero minor of the image lifts to a non-zero
minor over Q(γ): the F_ℓ rank of the image is a lower bound on the rank
over Q(γ).  `cyclo_rank` returns it when it reaches min(rows, cols) and
otherwise falls back to fraction-free (Bareiss) elimination; the
prime-power certificate closes the same lower bound against the rational
rank of its line matrix from above.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .gfp import GFpMatrix, is_prime, rank as gfp_rank
from .rings import enumerate_points

# modular images use primes above this floor; a product of t distinct such
# primes exceeds 2^(20 t), which bounds how many can divide a given minor
ELL_FLOOR = 2**20


def phi_pk(p: int, k: int) -> int:
    """Euler phi of p^k: the degree of Q(γ) over Q."""
    return (p - 1) * p ** (k - 1)


def minimal_polynomial(p: int, k: int) -> tuple[int, ...]:
    """Coefficients (ascending degree) of (x^{p^k} - 1)/(x^{p^{k-1}} - 1).

    The sparse sum 1 + x^{p^{k-1}} + x^{2 p^{k-1}} + ... + x^{(p-1) p^{k-1}},
    monic of degree phi(p^k).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    step = p ** (k - 1)
    coeffs = [0] * (phi_pk(p, k) + 1)
    for j in range(p):
        coeffs[j * step] = 1
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _reduction_row(p: int, k: int, degree: int) -> tuple[Fraction, ...]:
    """Coefficients of x^degree reduced modulo the minimal polynomial."""
    d = phi_pk(p, k)
    if degree < d:
        row = [Fraction(0)] * d
        row[degree] = Fraction(1)
        return tuple(row)
    # x^d = -(1 + x^{p^{k-1}} + ... + x^{(p-2) p^{k-1}})
    step = p ** (k - 1)
    row = [Fraction(0)] * d
    for j in range(p - 1):
        row[j * step] = Fraction(-1)
    if degree == d:
        return tuple(row)
    # reduce x^{degree} = x * x^{degree-1} recursively
    prev = _reduction_row(p, k, degree - 1)
    out = [Fraction(0)] * d
    for i, c in enumerate(prev):
        if not c:
            continue
        if i + 1 < d:
            out[i + 1] += c
        else:
            top = _reduction_row(p, k, d)
            for j, t in enumerate(top):
                out[j] += c * t
    return tuple(out)


def reduction_matrix(p: int, k: int) -> np.ndarray:
    """The p^k x φ integer matrix whose row e is γ^e in the basis
    1, γ, ..., γ^{φ-1}.

    Rows e < φ are unit vectors.  For e = φ + s with 0 <= s < p^{k-1},
    m(γ) = 0 gives γ^e = -(γ^s + γ^{s + p^{k-1}} + ... + γ^{s + (p-2) p^{k-1}}),
    so every entry is 0, 1 or -1.
    """
    step = p ** (k - 1)
    return np.vstack([
        np.eye(phi_pk(p, k), dtype=np.int64),
        -np.tile(np.eye(step, dtype=np.int64), p - 1),
    ])


@lru_cache(maxsize=128)
def split_prime(p: int, k: int, after: int = 0) -> tuple[int, int]:
    """The least prime ℓ > max(2^20, after) with ℓ ≡ 1 (mod p^k), and ω of
    order exactly p^k in F_ℓ.

    x^{p^k} - 1 splits into distinct linear factors over such an F_ℓ, so ω
    is a root of the minimal polynomial of γ and γ ↦ ω is a ring map.
    Passing the previous ℓ as after walks through the primes in order.
    """
    q = p**k
    floor = max(ELL_FLOOR, after)
    ell = floor - floor % q + 1
    if ell <= floor:
        ell += q
    while not is_prime(ell):
        ell += q
    # ω = g^((ℓ-1)/q) has order exactly q iff ω^(q/p) = g^((ℓ-1)/p) != 1
    g = 2
    while pow(g, (ell - 1) // p, ell) == 1:
        g += 1
    return ell, pow(g, (ell - 1) // q, ell)


def reduce_mod(coeffs: np.ndarray, ell: int, omega: int) -> np.ndarray:
    """Image in F_ℓ under γ ↦ ω of the integer coefficient vectors that run
    along the last axis of coeffs."""
    phi = coeffs.shape[-1]
    # after reduction every product is below ℓ^2 and the sum of φ of them
    # below φ·ℓ^2, which stays under 2^63 for every φ < 2^21 at ℓ < 2^21
    if phi * (ell - 1) ** 2 >= 2**63:
        raise OverflowError(f"degree {phi} too large for int64 sums mod {ell}")
    powers = np.array([pow(omega, c, ell) for c in range(phi)], dtype=np.int64)
    return (coeffs % ell) @ powers % ell


class CycloElement:
    """An element of Q(γ) with coefficient vector of length phi(p^k)."""

    __slots__ = ("p", "k", "coeffs")

    def __init__(self, p: int, k: int, coeffs):
        self.p = p
        self.k = k
        d = phi_pk(p, k)
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > d:
            reduced = [Fraction(0)] * d
            for i, c in enumerate(cs):
                if not c:
                    continue
                row = _reduction_row(p, k, i)
                for j, t in enumerate(row):
                    if t:
                        reduced[j] += c * t
            cs = reduced
        else:
            cs = cs + [Fraction(0)] * (d - len(cs))
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, p: int, k: int) -> "CycloElement":
        return cls(p, k, [])

    @classmethod
    def one(cls, p: int, k: int) -> "CycloElement":
        return cls(p, k, [1])

    @classmethod
    def from_rational(cls, p: int, k: int, value) -> "CycloElement":
        return cls(p, k, [Fraction(value)])

    @classmethod
    def gamma_power(cls, p: int, k: int, e: int) -> "CycloElement":
        e %= p**k
        coeffs = [Fraction(0)] * (e + 1)
        coeffs[e] = Fraction(1)
        return cls(p, k, coeffs)

    def _check(self, other: "CycloElement"):
        if (self.p, self.k) != (other.p, other.k):
            raise ValueError("cyclotomic order mismatch")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycloElement)
            and (self.p, self.k) == (other.p, other.k)
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(
            self.p, self.k, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "CycloElement") -> "CycloElement":
        self._check(other)
        return CycloElement(
            self.p, self.k, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "CycloElement":
        return CycloElement(self.p, self.k, [-a for a in self.coeffs])

    def __mul__(self, other) -> "CycloElement":
        if isinstance(other, (int, Fraction)):
            return CycloElement(
                self.p, self.k, [a * other for a in self.coeffs]
            )
        self._check(other)
        d = len(self.coeffs)
        conv = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    conv[i + j] += a * b
        return CycloElement(self.p, self.k, conv)

    __rmul__ = __mul__

    def inverse(self) -> "CycloElement":
        """Multiplicative inverse via extended Euclid against m(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(gamma)")
        m = [Fraction(c) for c in minimal_polynomial(self.p, self.k)]
        a = list(self.coeffs)
        # extended gcd of a and m over Q[x]; m is irreducible so gcd is a unit
        r0, r1 = m, _poly_trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _poly_deg(r1) > 0:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _poly_deg(r1) < 0:
            raise ZeroDivisionError("not invertible (unexpected)")
        c = r1[0]
        inv_coeffs = [x / c for x in s1]
        return CycloElement(self.p, self.k, inv_coeffs)

    def __truediv__(self, other: "CycloElement") -> "CycloElement":
        return self * other.inverse()

    def __repr__(self) -> str:
        return f"CycloElement(p^k={self.p}^{self.k}, coeffs={self.coeffs})"


def _poly_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_deg(a) -> int:
    return len(_poly_trim(a)) - 1


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = _poly_trim(a)
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        f = r[-1] / b[-1]
        q[shift] = f
        for i, y in enumerate(b):
            r[shift + i] -= f * y
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return _poly_trim(q), r


class CycloMatrix:
    """Dense matrix over Q(γ)."""

    __slots__ = ("p", "k", "entries")

    def __init__(self, p: int, k: int, entries):
        self.p = p
        self.k = k
        self.entries = [list(row) for row in entries]
        for row in self.entries:
            for e in row:
                if not isinstance(e, CycloElement) or (e.p, e.k) != (p, k):
                    raise ValueError("entry does not belong to Q(gamma)")

    @classmethod
    def from_rational(cls, p: int, k: int, data) -> "CycloMatrix":
        return cls(
            p,
            k,
            [[CycloElement.from_rational(p, k, x) for x in row] for row in data],
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def scale(self, factor) -> "CycloMatrix":
        f = Fraction(factor)
        return CycloMatrix(
            self.p, self.k, [[e * f for e in row] for row in self.entries]
        )

    def __matmul__(self, other: "CycloMatrix") -> "CycloMatrix":
        if (self.p, self.k) != (other.p, other.k):
            raise ValueError("cyclotomic order mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        zero = CycloElement.zero(self.p, self.k)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for t in range(self.cols):
                    e = self.entries[i][t]
                    if not e.is_zero():
                        acc = acc + e * other.entries[t][j]
                row.append(acc)
            out.append(row)
        return CycloMatrix(self.p, self.k, out)


def cyclo_rank(M: CycloMatrix) -> int:
    """Rank over Q(γ).

    The F_ℓ rank of the image under γ ↦ ω is a lower bound, so when it
    reaches min(rows, cols) it is the rank; otherwise the rank comes from
    fraction-free (Bareiss) elimination over Q(γ).
    """
    m, n = M.rows, M.cols
    if m == 0 or n == 0:
        return 0
    ell = 0
    while True:
        ell, omega = split_prime(M.p, M.k, ell)
        if all(c.denominator % ell for row in M.entries for e in row
               for c in e.coeffs):
            break
    coeffs = np.array(
        [[[c.numerator * pow(c.denominator, -1, ell) % ell for c in e.coeffs]
          for e in row] for row in M.entries],
        dtype=np.int64,
    )
    if gfp_rank(GFpMatrix(ell, reduce_mod(coeffs, ell, omega))) == min(m, n):
        return min(m, n)
    return _bareiss_rank(M)


def _bareiss_rank(M: CycloMatrix) -> int:
    """Rank over Q(γ) by fraction-free (Bareiss) elimination."""
    A = [row[:] for row in M.entries]
    m = len(A)
    n = len(A[0])
    one = CycloElement.one(M.p, M.k)
    prev = one
    inv_prev = one
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if not A[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
        pivot = A[r][c]
        for i in range(r + 1, m):
            head = A[i][c]
            for j in range(c + 1, n):
                A[i][j] = (pivot * A[i][j] - head * A[r][j]) * inv_prev
            A[i][c] = CycloElement.zero(M.p, M.k)
        prev = pivot
        inv_prev = prev.inverse()
        r += 1
        if r == m:
            break
    return r


def zero_pattern(M: CycloMatrix) -> GFpMatrix:
    """0/1 matrix over F_p marking the non-zero entries of M."""
    data = [[0 if e.is_zero() else 1 for e in row] for row in M.entries]
    return GFpMatrix(M.p, data)


def _gamma_powers(p: int, k: int) -> list[CycloElement]:
    return [CycloElement.gamma_power(p, k, e) for e in range(p**k)]


def rank_transfer_check(M: CycloMatrix) -> bool:
    """Check rank over Q(γ) >= rank over F_p of the zero pattern.

    Every entry of M must be zero or a power of γ.
    """
    powers = _gamma_powers(M.p, M.k)
    for row in M.entries:
        for e in row:
            if e.is_zero():
                continue
            if not any(e == g for g in powers):
                raise ValueError("entry is neither zero nor a power of gamma")
    return cyclo_rank(M) >= gfp_rank(zero_pattern(M))


def dft_matrix(spec) -> CycloMatrix:
    """Character table of (Z/p^k Z)^n: entry (i, j) is γ^{<i, j>}.

    Rows and columns are indexed by points in natural mixed-radix order.
    """
    if not spec.is_prime_power:
        raise ValueError("dft_matrix requires a prime-power modulus")
    p, k = spec.factors[0]
    if phi_pk(p, k) > 64:
        raise ValueError("cyclotomic degree above the supported limit of 64")
    q = spec.N
    powers = _gamma_powers(p, k)
    pts = enumerate_points(spec)
    entries = [
        [powers[sum(a * b for a, b in zip(x, y)) % q] for y in pts]
        for x in pts
    ]
    return CycloMatrix(p, k, entries)


def dft_product(A, spec) -> np.ndarray:
    """A times the character table of (Z/p^k Z)^n, computed in integers.

    A is a 0/1 matrix whose columns are the points in natural order.  Entry
    (i, j) of the product is the sum of γ^{<t, y_j>} over the points t of
    row i: a histogram of exponents, times `reduction_matrix`.  Returns the
    Z[γ] coefficient array of shape (rows, p^{kn}, φ); no coefficient
    exceeds the largest row weight of A in absolute value.
    """
    A = np.asarray(A)
    if not np.isin(A, (0, 1)).all():
        raise ValueError("dft_product expects a 0/1 matrix")
    p, k = spec.factors[0]
    q = spec.N
    pts = np.array(enumerate_points(spec), dtype=np.int64)
    size = len(pts)
    row, point = np.nonzero(A)
    keys = (row[:, None] * size + np.arange(size)) * q + pts[point] @ pts.T % q
    H = np.bincount(keys.ravel(), minlength=len(A) * size * q)
    return H.reshape(len(A), size, q) @ reduction_matrix(p, k)
