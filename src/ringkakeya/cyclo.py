"""Matrices over Z[γ], γ a primitive p^k-th root of unity, and the
rank-transfer comparison down to F_p.

An element of Z[γ] is an integer coefficient vector of length φ = φ(p^k)
in the basis 1, γ, ..., γ^{φ-1} of Q(γ); a matrix over Z[γ] is an int64
array of shape (rows, cols, φ).  Row e of `reduction_matrix` is γ^e in
that basis, and `dft_product` multiplies a 0/1 matrix by the character
table of (Z/p^k Z)^n in integers.

Ranks are certified modularly.  For a prime ℓ ≡ 1 (mod p^k) and ω of
order exactly p^k in F_ℓ, γ ↦ ω is a ring map from Z[γ] onto F_ℓ, so a
non-zero minor of the image lifts to a non-zero minor over Q(γ): the F_ℓ
rank of the image is a lower bound on the rank over Q(γ).  `rank_cyclo`
returns it once it meets a proven upper bound, and otherwise computes the
exact rank as the rational rank of the regular representation over Q,
divided by φ.  No floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gfp import GFpMatrix, is_prime, rank as gfp_rank, rank_rational
from .rings import enumerate_points

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


def _regular(coeffs: np.ndarray, p: int, k: int) -> np.ndarray:
    """The regular representation over Q of the Z[γ] matrix coeffs: row
    (i, a) holds the coordinates of γ^a·M[i, :], so its rational rank is
    φ times the rank of M over Q(γ)."""
    R = reduction_matrix(p, k)
    phi = R.shape[1]
    # γ^a·γ^e = γ^{(a+e) mod q}: T[a, e] is row (a + e) mod q of R
    T = R[(np.arange(phi)[:, None] + np.arange(phi)) % len(R)]
    m, n, _ = coeffs.shape
    return np.einsum("ije,aeb->iajb", coeffs, T).reshape(m * phi, n * phi)


def rank_cyclo(coeffs: np.ndarray, p: int, k: int, upper: int | None = None) -> int:
    """Rank over Q(γ) of the matrix whose entries are the Z[γ] coefficient
    vectors along the last axis of coeffs (shape (rows, cols, φ)).

    The F_ℓ rank of each image under γ ↦ ω is a lower bound, and it is the
    rank once it reaches upper, a proven upper bound that defaults to
    min(rows, cols).  Without upper, one image is tried and the exact rank
    otherwise comes from the regular representation.  A caller that passes
    upper vouches for it as the prime-power certificate does: there
    coeffs = MS·F for a 0/1 line matrix MS of rational rank upper and the
    character table F, which is invertible mod ℓ, so the image rank falls
    short only when ℓ divides one fixed non-zero upper x upper minor of MS.
    Its rows hold at most q ones, so Hadamard bounds it by q^(upper/2), and
    fewer than bits(q^upper)/40 primes above 2^20 can divide it; when that
    many images fall short, AssertionError is raised.
    """
    m, n, _ = coeffs.shape
    if m == 0 or n == 0:
        return 0
    q = p**k
    tries = 1 if upper is None else (q**upper).bit_length() // 40 + 1
    target = min(m, n) if upper is None else upper
    ell = 0
    # gfp.rank multiplies two residues below ℓ < 2^21 at a time: < 2^42
    for _ in range(tries):
        ell, omega = split_prime(p, k, ell)
        if gfp_rank(GFpMatrix(ell, reduce_mod(coeffs, ell, omega))) == target:
            return target
    if upper is not None:
        raise AssertionError("modular rank bounds did not close (internal bug)")
    return rank_rational(_regular(coeffs, p, k)) // phi_pk(p, k)


def zero_pattern(coeffs: np.ndarray, p: int) -> GFpMatrix:
    """0/1 matrix over F_p marking the non-zero entries of coeffs."""
    return GFpMatrix(p, coeffs.any(-1))


def rank_transfer_check(coeffs: np.ndarray, p: int, k: int) -> bool:
    """Check rank over Q(γ) >= rank over F_p of the zero pattern.

    Every entry of coeffs must be zero or a power of γ (a row of
    `reduction_matrix`).
    """
    powers = reduction_matrix(p, k)
    is_power = (coeffs[..., None, :] == powers).all(-1).any(-1)
    if not (is_power | ~coeffs.any(-1)).all():
        raise ValueError("entry is neither zero nor a power of gamma")
    return rank_cyclo(coeffs, p, k) >= gfp_rank(zero_pattern(coeffs, p))


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
    pts = np.array(enumerate_points(spec), dtype=np.int64)
    size = len(pts)
    row, point = np.nonzero(A)
    keys = (row[:, None] * size + np.arange(size)) * q + pts[point] @ pts.T % q
    H = np.bincount(keys.ravel(), minlength=len(A) * size * q)
    return H.reshape(len(A), size, q) @ reduction_matrix(p, k)
