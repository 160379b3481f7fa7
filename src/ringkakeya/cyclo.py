"""Matrices over Z[γ], γ a primitive p^k-th root of unity: their exact
rank, and the zero pattern over F_p that the rank transfer compares it
with (rank over Q(γ) >= F_p rank of the pattern when every entry is zero
or a power of γ).

An element of Z[γ] is an integer coefficient vector of length φ = φ(p^k)
in the basis 1, γ, ..., γ^{φ-1} of Q(γ); a matrix over Z[γ] is an int64
array of shape (rows, cols, φ).  Row e of `reduction_matrix` is γ^e in
that basis, and `dft_product` multiplies a 0/1 matrix by the character
table of (Z/p^k Z)^n in integers.

Ranks are computed modularly.  For a prime ℓ ≡ 1 (mod p^k) and ω of
order exactly p^k in F_ℓ, γ ↦ ω is a ring map from Z[γ] onto F_ℓ, so a
non-zero minor of the image lifts to a non-zero minor over Q(γ): the F_ℓ
rank of the image, taken by `gfp._echelon`, is a lower bound on the rank
over Q(γ).  It falls short only when ℓ divides the norm of a fixed
non-zero r x r minor, r the rank, and a Hadamard bound on that norm limits
how many primes above 2^20 can; `rank_cyclo` takes the largest image rank
over one prime more than that, which is the rank, or stops at the first
image that reaches a caller's target, which is then a proven lower bound.
Q is Q(γ) at p^k = 2, where γ = -1, so `rank_rational` is `rank_cyclo` on
one-coefficient entries.  No floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gfp import GFpMatrix, is_prime, rank as gfp_rank

# modular images use primes above this floor; a product of t distinct such
# primes exceeds 2^(20 t), which bounds how many can divide a given minor
ELL_FLOOR = 2**20


def phi_pk(p: int, k: int) -> int:
    """Euler phi of p^k: the degree of Q(γ) over Q."""
    return (p - 1) * p ** (k - 1)


def reduction_matrix(p: int, k: int) -> np.ndarray:
    """The p^k x φ integer matrix whose row e is γ^e in the basis
    1, γ, ..., γ^{φ-1}.

    Rows e < φ are unit vectors.  For e = φ + s with 0 <= s < p^{k-1}, the
    minimal polynomial m(x) = 1 + x^{p^{k-1}} + ... + x^{(p-1) p^{k-1}}
    gives γ^e = -(γ^s + γ^{s + p^{k-1}} + ... + γ^{s + (p-2) p^{k-1}}),
    so every entry is 0, 1 or -1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("k must be >= 1")
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


def _prime_count(coeffs: np.ndarray) -> int:
    """How many primes above 2^20 `rank_cyclo` tries: enough that one of
    them keeps a fixed non-zero r x r minor D non-zero, r the rank.

    Every embedding σ of Q(γ) sends an entry c to |σ(c)| <= ‖c‖₁, since
    |σ(γ^e)| = 1.  By Hadamard |σ(D)| <= Π_i sqrt(s_i) over the rows of D,
    with s_i = Σ_j ‖c_ij‖₁², so the norm of D, a non-zero integer, is below
    2^(φ·Σ_i bits(s_i)/2) <= 2^(20·count).  An image loses D only if ℓ
    divides that norm, and count distinct primes above 2^20 multiply to
    more.
    """
    _, n, phi = coeffs.shape
    top = max(-int(coeffs.min()), int(coeffs.max()))
    # the int64 sums are exact below 2^63; past that they are Python ints
    a = coeffs if n * (phi * top) ** 2 < 2**63 else coeffs.astype(object)
    l1 = np.abs(a).sum(-1)
    bits = sum(int(s).bit_length() for s in (l1 * l1).sum(1))
    return phi * bits // 40 + 1


def rank_cyclo(coeffs: np.ndarray, p: int, k: int, target: int | None = None) -> int:
    """Rank over Q(γ) of the matrix whose entries are the Z[γ] coefficient
    vectors along the last axis of coeffs (shape (rows, cols, φ)).

    It is the largest F_ℓ rank of the images under γ ↦ ω over
    `_prime_count` primes, returned as soon as it reaches target, which
    defaults to min(rows, cols).  Every image rank is a lower bound, so the
    result is at least a caller's target exactly when the rank is, and is
    the rank when it is below target.
    """
    m, n, _ = coeffs.shape
    if m == 0 or n == 0:
        return 0
    target = min(m, n) if target is None else target
    best = ell = 0
    # gfp.rank eliminates mod ℓ in int64, and refuses an ℓ whose products wrap
    for _ in range(_prime_count(coeffs)):
        ell, omega = split_prime(p, k, ell)
        best = max(best, gfp_rank(GFpMatrix(ell, reduce_mod(coeffs, ell, omega))))
        if best >= target:
            break
    return best


def rank_rational(data) -> int:
    """Exact rank over Q of an integer matrix: Q(γ) at p^k = 2, γ = -1."""
    return rank_cyclo(np.atleast_2d(data)[..., None], 2, 1)


def zero_pattern(coeffs: np.ndarray, p: int) -> GFpMatrix:
    """0/1 matrix over F_p marking the non-zero entries of coeffs."""
    return GFpMatrix(p, coeffs.any(-1))


def dft_product(A, spec) -> np.ndarray:
    """A times the character table of (Z/p^k Z)^n, computed in integers.

    A is a 0/1 matrix whose columns are the points in natural order; the
    table itself, entry (i, j) = γ^{<i, j>}, is the product with the
    identity.  Entry (i, j) of the product is the sum of γ^{<t, y_j>} over
    the points t of row i: a histogram of exponents, times
    `reduction_matrix`.  Returns the Z[γ] coefficient array of shape
    (rows, p^{kn}, φ); no coefficient exceeds the largest row weight of A
    in absolute value.
    """
    if not spec.is_prime_power:
        raise ValueError("dft_product requires a prime-power modulus")
    A = np.asarray(A)
    if not np.isin(A, (0, 1)).all():
        raise ValueError("dft_product expects a 0/1 matrix")
    p, k = spec.factors[0]
    q = spec.N
    pts = spec.points
    size = len(pts)
    row, point = np.nonzero(A)
    keys = (row[:, None] * size + np.arange(size)) * q + pts[point] @ pts.T % q
    H = np.bincount(keys.ravel(), minlength=len(A) * size * q)
    return H.reshape(len(A), size, q) @ reduction_matrix(p, k)
